import numpy as np
import pytest
import scipy.linalg

from eurqsi.entropy import relative
from eurqsi.linalg import fidelity, op_norm, tensor, trace_distance
from eurqsi.recovery import (
    CHOI_TOL,
    CpMap,
    apply_map,
    choi_from_kraus,
    eur_recovery_map,
    measurement_channel,
    petz_map,
    rotated_petz_map,
    verify_cptp,
)
from eurqsi.states import (
    DensityOperator,
    InvalidStateError,
    KET_0,
    KET_PLUS,
    KET_PLUS_Y,
    Pvm,
    ket_bra,
    maximally_mixed,
    measure,
    pauli_pvm,
    pinch,
    random_multipartite_state,
    random_pvm,
    random_state,
    theta_state,
)

from conftest import (
    ROUND_OFF_MASSES,
    choi_action_oracle,
    choi_of_kraus,
    dagger,
    haar_unitary,
    identity_map,
    measurement_kraus_nd_oracle,
    pinched_state_oracle,
    rank_one_vectors,
    rank2_plus_rank1_pvm,
    rotated_petz_choi_oracle,
    rotated_spectrum,
    support_projector,
    tensor_with_identity,
)


class TestCpMap:
    def test_rejects_non_psd_choi(self):
        with pytest.raises(ValueError):
            CpMap(choi=np.diag([1.0, -1.0, 0, 0]), in_dims=(2,), out_dims=(2,))

    @pytest.mark.parametrize("choi, message", [
        (np.eye(3), r"Choi shape \(3, 3\) does not match dims \(4, 4\)"),
        (np.eye(4) + np.triu(np.ones((4, 4)), 1), "^Choi matrix is not Hermitian$"),
    ], ids=["wrong shape", "not Hermitian"])
    def test_rejects_a_choi_matrix_that_is_no_map_of_its_dims(self, choi, message):
        with pytest.raises(ValueError, match=message):
            CpMap(choi=choi, in_dims=(2,), out_dims=(2,))

    def test_apply_matrix_rejects_an_input_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match=r"input shape \(3, 3\) does not match 2"):
            measurement_channel(pauli_pvm("X")).apply_matrix(np.eye(3) / 3)

    @pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
    def test_psd_threshold_scales_with_the_choi(self, factor, accepted):
        u = haar_unitary(4, 311)
        choi0 = (u * np.array([3.0, 1.0, 0.5, 0.0])) @ dagger(u)
        scale = max(1.0, float(np.abs(choi0).max()))
        lowest = u[:, 3:]
        choi = choi0 - factor * CHOI_TOL * scale * (lowest @ dagger(lowest))
        choi = 0.5 * (choi + dagger(choi))
        if accepted:
            CpMap(choi=choi, in_dims=(2,), out_dims=(2,))
        else:
            with pytest.raises(ValueError, match="^Choi matrix is not positive semidefinite$"):
                CpMap(choi=choi, in_dims=(2,), out_dims=(2,))

    def test_rejects_a_support_of_the_wrong_shape(self):
        choi = choi_from_kraus([np.eye(2)])
        for support in (np.eye(1), np.eye(3), np.ones((2, 3))):
            with pytest.raises(ValueError, match="support shape"):
                CpMap(choi, (2,), (2,), support=support)
        assert verify_cptp(CpMap(choi, (2,), (2,), support=np.eye(2))).ok

    @pytest.mark.parametrize("labels", [
        dict(in_labels=("a", "b", "c"), out_labels=("x",)),
        dict(out_labels=("x", "y")),
        dict(in_labels=("a", "b"), in_dims=(2, 2), out_labels=("x", "x"), out_dims=(2, 2)),
        dict(in_labels=("a", "a"), in_dims=(2, 2), out_dims=(2, 2)),
    ])
    def test_rejects_labels_that_do_not_name_its_subsystems(self, labels):
        fields = {"in_dims": (2,), "out_dims": (2,), **labels}
        d = int(np.prod(fields["in_dims"]))
        with pytest.raises(ValueError, match="distinct names"):
            CpMap(choi_from_kraus([np.eye(d)]), **fields)

    @pytest.mark.parametrize("dims", [dict(in_dims=(2.5,)), dict(out_dims=(2, 1.5))])
    def test_rejects_dims_that_are_not_integers(self, dims):
        # int() alone would truncate each to a layout whose Choi shape fits
        fields = {"in_dims": (2,), "out_dims": (2,), **dims}
        with pytest.raises(ValueError, match="dims must be integers"):
            CpMap(choi_from_kraus([np.eye(2)]), **fields)
        assert CpMap(choi_from_kraus([np.eye(2)]), (np.int64(2),), (2.0,)).out_dims == (2,)

    @pytest.mark.parametrize("dims, side", [
        (dict(in_dims=(-2,), out_dims=(-2,)), "input"),   # (-2)(-2) = 4 fits the Choi shape
        (dict(in_dims=(0,)), "input"),
        (dict(out_dims=(2, 0)), "output"),
    ])
    def test_rejects_dims_below_one(self, dims, side):
        fields = {"in_dims": (2,), "out_dims": (2,), **dims}
        with pytest.raises(ValueError, match=f"^{side} dims must be positive"):
            CpMap(np.eye(4), **fields)

    def test_from_kraus_rejects_a_kraus_operator_of_the_wrong_shape(self):
        # (out, in) = (3, 2): a (2, 3) operator is its transpose, not the map
        with pytest.raises(ValueError, match="Kraus operator shape"):
            CpMap.from_kraus([np.ones((2, 3))], (2,), (3,))
        with pytest.raises(ValueError, match="Kraus operator shape"):
            CpMap.from_kraus([np.eye(2), np.eye(3)], (2,), (2,))


class TestChoiOnlyMap:
    """A map is its Choi matrix alone: no Kraus form is kept or derived,
    and the map acts as its Choi matrix as a channel."""

    def _maps(self):
        rho = random_multipartite_state((2, 2), 4, 421, ("A", "B"))
        xp = random_pvm(2, 422)
        chan = tensor_with_identity(measurement_channel(xp), (2,), ("B",))
        maps = (eur_recovery_map(rho, xp, pauli_pvm("Z")),
                rotated_petz_map(pinch(rho, pauli_pvm("Z"), "A").matrix, chan))
        for rec in maps:
            assert not hasattr(rec, "kraus")
        return maps

    def test_apply_matrix(self):
        # the Choi contraction equals the textbook Tr_in[(xi^T (x) I) choi]
        for rec in self._maps():
            for seed in range(3):
                xi = random_state(4, 4, [425, seed]).matrix
                want = choi_action_oracle(rec, xi)
                assert np.abs(rec.apply_matrix(xi) - want).max() < 1e-13

    def test_petz_map(self):
        sigma = random_state(4, 4, 423).matrix
        sqrt_sigma = scipy.linalg.sqrtm(sigma)
        for rec in self._maps():
            petz = petz_map(sigma, rec)
            # oracle: sigma^1/2 N^dag(N(sigma)^-1/2 Y N(sigma)^-1/2) sigma^1/2, with
            # N(X) = sum_ij X_ij C[i, :, j, :] and its adjoint read off the Choi matrix
            blocks = rec.choi_blocks()
            vals, vecs = np.linalg.eigh(rec.apply_matrix(sigma))
            keep = vals > 1e-10 * vals.max()
            inv_sqrt = (vecs[:, keep] / np.sqrt(vals[keep])) @ dagger(vecs[:, keep])
            for seed in range(3):
                y = rec.apply_matrix(random_state(4, 4, [424, seed]).matrix)
                adj = np.einsum("ab,jbia->ij", inv_sqrt @ y @ inv_sqrt, blocks)
                want = sqrt_sigma @ adj @ sqrt_sigma
                assert np.abs(petz.apply_matrix(y) - want).max() < 1e-10


MEASUREMENT_PVMS = {
    "pauli x": pauli_pvm("X"),
    "haar 3": random_pvm(3, 312),
    "rank 2 + rank 1": rank2_plus_rank1_pvm(313),
}


class TestMeasurementChannel:
    @pytest.mark.parametrize("name", sorted(MEASUREMENT_PVMS))
    def test_d_kraus_operators_same_channel(self, name):
        pvm = MEASUREMENT_PVMS[name]
        chan = measurement_channel(pvm)
        assert len(pvm.kraus) == pvm.dim
        completeness = sum(dagger(k) @ k for k in pvm.kraus)
        assert np.abs(completeness - np.eye(pvm.dim)).max() < 1e-14
        want = choi_of_kraus(measurement_kraus_nd_oracle(pvm))
        assert np.abs(chan.choi - want).max() < 1e-14
        assert verify_cptp(chan).ok


class TestPetz:
    def test_identity_channel_fixed_point(self):
        sig = random_state(2, 1, 3).matrix  # rank deficient on purpose
        rec = petz_map(sig, identity_map((2,)))
        supp = support_projector(sig)
        probe = supp @ random_state(2, 2, 9).matrix @ supp
        assert np.abs(rec.apply_matrix(probe) - probe).max() < 1e-10

    def test_restores_sigma_from_eigenbasis_measurement(self):
        sig = maximally_mixed(2)
        rec = petz_map(sig, measurement_channel(pauli_pvm("Z")))
        n_sig = measurement_channel(pauli_pvm("Z")).apply_matrix(sig)
        assert np.abs(rec.apply_matrix(n_sig) - sig).max() < 1e-10

    def test_against_dense_formula_oracle(self):
        # independent evaluation: sqrtm/pinv route plus the explicit adjoint
        # N^dag(kappa) = sum_x <x|kappa|x> P_x
        for seed in range(10):
            sig = random_state(2, 2, [seed, 0]).matrix
            pvm = pauli_pvm("X")
            chan = measurement_channel(pvm)
            rec = petz_map(sig, chan)
            n_sig = np.diag([np.trace(proj @ sig) for proj in pvm.projectors])
            inv_sqrt = np.linalg.pinv(scipy.linalg.sqrtm(n_sig))
            sqrt_sig = scipy.linalg.sqrtm(sig)
            kappa_in = random_state(2, 2, [seed, 1]).matrix
            kappa = inv_sqrt @ kappa_in @ inv_sqrt
            adj = sum(kappa[x, x] * proj for x, proj in enumerate(pvm.projectors))
            want = sqrt_sig @ adj @ sqrt_sig
            got = rec.apply_matrix(kappa_in)
            assert np.abs(got - want).max() < 1e-9

    def test_trace_preserving_on_support(self):
        sig = random_state(3, 2, 4).matrix
        chan = measurement_channel(random_pvm(3, 8))
        rec = petz_map(sig, chan)
        assert verify_cptp(rec).ok

    @pytest.mark.parametrize("build", [petz_map, rotated_petz_map])
    def test_accepts_what_a_density_operator_accepts(self, build):
        # DensityOperator accepts eigenvalues down to -1e-8, and so do the maps
        chan = tensor_with_identity(measurement_channel(pauli_pvm("X")), (2,), ("B",))
        for mass in ROUND_OFF_MASSES:
            sig = DensityOperator(rotated_spectrum([0.6, 0.3, 0.1 + mass, -mass], 3),
                                  (2, 2), ("A", "B")).matrix
            rec = build(sig, chan)
            # CPTP on supp(N(sigma)); sigma restored up to its negative mass
            assert verify_cptp(rec).ok, mass
            assert np.abs(rec.apply_matrix(chan.apply_matrix(sig)) - sig).max() < 2 * mass

    @pytest.mark.parametrize("build", [petz_map, rotated_petz_map])
    @pytest.mark.parametrize("sigma, message", [
        (np.eye(3) / 3, r"sigma shape \(3, 3\) does not fit channel input 2"),
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "sigma is not Hermitian"),
    ], ids=["wrong shape", "not Hermitian"])
    def test_rejects_a_reference_that_is_no_operator_on_the_input(self, build, sigma, message):
        with pytest.raises(ValueError, match=message):
            build(sigma, measurement_channel(pauli_pvm("X")))

    def test_rejects_what_a_density_operator_rejects(self):
        sig = rotated_spectrum([0.6, 0.3, 0.1 + 2e-8, -2e-8], 3)
        with pytest.raises(InvalidStateError):
            DensityOperator(sig, (2, 2), ("A", "B"))
        chan = tensor_with_identity(measurement_channel(pauli_pvm("X")), (2,), ("B",))
        for build in (petz_map, rotated_petz_map):
            with pytest.raises(ValueError, match="negative eigenvalues beyond tolerance"):
                build(sig, chan)


class TestRotatedPetz:
    def test_commuting_case_reduces_to_petz(self):
        sig = np.diag([0.7, 0.3]).astype(complex)
        chan = measurement_channel(pauli_pvm("Z"))
        plain = petz_map(sig, chan)
        rotated = rotated_petz_map(sig, chan)
        assert np.abs(plain.choi - rotated.choi).max() < 1e-9

    def test_restores_sigma(self):
        for seed in range(10):
            sig = random_state(2, 2, [seed, 2]).matrix
            chan = measurement_channel(pauli_pvm("X"))
            rec = rotated_petz_map(sig, chan)
            assert np.abs(rec.apply_matrix(chan.apply_matrix(sig)) - sig).max() < 1e-8

    def test_max_uncertainty_log_fidelity_is_one_bit(self):
        rho = DensityOperator(
            tensor(ket_bra(KET_PLUS_Y), maximally_mixed(2)), (2, 2), ("A", "B")
        )
        xp, zp = pauli_pvm("X"), pauli_pvm("Z")
        chan = tensor_with_identity(measurement_channel(xp), (2,), ("B",))
        rec = rotated_petz_map(pinch(rho, zp, "A").matrix, chan)
        sigma = measure(rho, xp, "A", "X")
        f = fidelity(rho.matrix, rec.apply_matrix(sigma.matrix))
        assert abs(-np.log2(f) - 1.0) < 1e-6

    def test_matches_quadrature_oracle(self):
        xp2, xp3 = pauli_pvm("X"), random_pvm(3, 81)
        rank_def_b = random_multipartite_state((3, 3), 2, 84, ("A", "B"))
        cases = [
            # (sigma, X, d_B): 2x2, 3x2 and 3x3 X-after-Z pinched states
            (random_state(2, 2, 80).matrix, xp2, 1),
            *[
                (pinch(random_multipartite_state((3, d_b), 3 * d_b, 82 + d_b, ("A", "B")),
                       random_pvm(3, 83), "A").matrix, xp3, d_b)
                for d_b in (2, 3)
            ],
            # eigenvalues on both sides of the support cutoff, in sigma and
            # in N(sigma)
            (np.kron(np.diag([0.55, 0.45]), np.diag([1.0 - 3.05e-10, 3e-10, 5e-12])), xp2, 3),
            # near-pure
            (np.diag([1.0 - 1e-9, 1e-9]).astype(complex), xp2, 1),
            # B of rank 2 in dimension 3
            (pinch(rank_def_b, random_pvm(3, 86), "A").matrix, xp3, 3),
            # unnormalized
            (2.5 * random_state(3, 3, 87).matrix, xp3, 1),
        ]
        for sigma, xp, d_b in cases:
            chan = measurement_channel(xp)
            if d_b > 1:
                chan = tensor_with_identity(chan, (d_b,), ("B",))
            got = rotated_petz_map(sigma, chan).choi
            # the channel's Kraus set: K_x = |x><v| (x) I_B
            kraus = [np.kron(k, np.eye(d_b)) for k in xp.kraus]
            want = rotated_petz_choi_oracle(sigma, kraus)
            assert np.abs(got - want).max() <= 1e-12


class TestEurRecoveryMap:
    def test_x_eigenstate_perfect_recovery(self):
        rho = DensityOperator(
            tensor(ket_bra(KET_PLUS), maximally_mixed(2)), (2, 2), ("A", "B")
        )
        rec = eur_recovery_map(rho, pauli_pvm("X"), pauli_pvm("Z"))
        out = rec.apply_matrix(tensor(ket_bra(KET_0), maximally_mixed(2)))
        want = tensor(ket_bra(KET_PLUS), maximally_mixed(2))
        assert trace_distance(out, want) < 1e-9

    def test_z_eigenstate_closed_form(self):
        rho = DensityOperator(
            tensor(ket_bra(KET_0), maximally_mixed(2)), (2, 2), ("A", "B")
        )
        rec = eur_recovery_map(rho, pauli_pvm("X"), pauli_pvm("Z"))
        # closed form: R(xi) = |0><0| (x) Tr_X xi
        for seed in range(5):
            xi = random_multipartite_state((2, 2), 4, [seed, 11], ("X", "B")).matrix
            got = rec.apply_matrix(xi)
            want = np.kron(ket_bra(KET_0), np.trace(
                xi.reshape(2, 2, 2, 2), axis1=0, axis2=2))
            assert np.abs(got - want).max() < 1e-9

    def test_max_entangled_kraus_form(self):
        from eurqsi.gallery import recovery_map_r3
        rho = DensityOperator.from_vector(
            np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2), (2, 2), ("A", "B")
        )
        rec = eur_recovery_map(rho, pauli_pvm("X"), pauli_pvm("Z"))
        ref = recovery_map_r3()
        assert op_norm(rec.choi - ref.choi) < 1e-9
        sigma = measure(rho, pauli_pvm("X"), "A", "X")
        assert trace_distance(rec.apply_matrix(sigma.matrix), rho.matrix) < 1e-9

    def test_rejects_non_rank_one_z(self):
        rho = random_multipartite_state((4, 2), 8, 0, ("A", "B"))
        rank2 = Pvm((np.diag([1, 1, 0, 0]).astype(complex),
                     np.diag([0, 0, 1, 1]).astype(complex)))
        with pytest.raises(InvalidStateError):
            eur_recovery_map(rho, random_pvm(4, 1), rank2)

    def test_perfect_reversal_random_instances(self):
        worst = 0.0
        for seed in range(20):
            d = 2 if seed % 2 else 3
            rho = random_multipartite_state((d, d), d * d, [seed, 21], ("A", "B"))
            xp, zp = random_pvm(d, [seed, 22]), random_pvm(d, [seed, 23])
            rec = eur_recovery_map(rho, xp, zp)
            theta = theta_state(rho, xp, zp)
            out = rec.apply_matrix(theta.matrix)
            want = pinched_state_oracle(rho.matrix, rank_one_vectors(zp))
            worst = max(worst, trace_distance(out, want))
        assert worst < 1e-7

    def test_agrees_with_generic_rotated_petz_on_support(self):
        # eur_recovery_map is the generic rotated Petz map of M_X (x) id
        # relative to the pinched state plus a completion term: on the
        # support of theta the completion must leave the map alone (the
        # map's core has its own oracle, test_matches_quadrature_oracle)
        cases = [((d, d), d * d, ("A", "B"), random_pvm(d, [seed, 32]), seed)
                 for seed, d in enumerate([3, 2] * 5)]
        cases += [
            ((3, 3), 1, ("A", "B"), random_pvm(3, [10, 32]), 10),
            ((3, 3), 2, ("A", "B"), random_pvm(3, [11, 32]), 11),
            # d_B > d_A * rank: theta is rank deficient and the completion
            # branch is on
            ((2, 3), 1, ("A", "B"), random_pvm(2, [19, 32]), 19),
            ((3, 2), 1, ("B", "A"), random_pvm(2, [20, 32]), 20),
            ((2, 3), 6, ("A", "B"), random_pvm(2, [12, 32]), 12),
            ((3, 2), 6, ("A", "B"), random_pvm(3, [13, 32]), 13),
            ((3, 2), 6, ("B", "A"), random_pvm(2, [14, 32]), 14),
            ((2, 3), 2, ("B", "A"), random_pvm(3, [15, 32]), 15),
            ((3, 2), 6, ("A", "B"), rank2_plus_rank1_pvm([16, 32]), 16),
            ((3, 2), 1, ("A", "B"), rank2_plus_rank1_pvm([17, 32]), 17),
            ((2, 3), 2, ("B", "A"), rank2_plus_rank1_pvm([18, 32]), 18),
        ]
        for dims, rank, labels, xp, seed in cases:
            rho = random_multipartite_state(dims, rank, [seed, 31], labels)
            d_a = rho.dims[rho.label_index("A")]
            zp = random_pvm(d_a, [seed, 33])
            explicit = eur_recovery_map(rho, xp, zp)
            assert verify_cptp(explicit).ok, seed
            chan = tensor_with_identity(measurement_channel(xp), (rho.dim // d_a,), ("B",))
            generic = rotated_petz_map(pinch(rho.permute(["A", "B"]), zp, "A").matrix, chan)
            theta = theta_state(rho, xp, zp)
            # restricting the input to a subspace P conjugates the Choi
            # matrix by P.T (x) I
            lift = np.kron(support_projector(theta.matrix).T, np.eye(rho.dim))
            diff = lift @ (explicit.choi - generic.choi) @ lift
            assert op_norm(diff) < 1e-7, seed

    def test_completion_branch_makes_map_globally_tp(self):
        # a rank-deficient theta leaves a complement; the channel must still
        # be trace preserving on the whole input space
        rho = DensityOperator(
            tensor(ket_bra(KET_0), ket_bra(KET_0)), (2, 2), ("A", "B")
        )
        rec = eur_recovery_map(rho, pauli_pvm("Z"), pauli_pvm("Z"))
        report = verify_cptp(rec)
        assert report.ok
        probe = random_multipartite_state((2, 2), 4, 99, ("X", "B")).matrix
        assert abs(np.trace(rec.apply_matrix(probe)).real - 1.0) < 1e-8


class TestApplyMap:
    def test_identity(self):
        rho = random_multipartite_state((2, 2), 4, 5, ("X", "B"))
        out = apply_map(identity_map((2, 2), ("X", "B")), rho)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-12

    def test_r1_on_uniform_input(self):
        rho = DensityOperator(
            tensor(ket_bra(KET_PLUS), maximally_mixed(2)), (2, 2), ("A", "B")
        )
        rec = eur_recovery_map(rho, pauli_pvm("X"), pauli_pvm("Z"))
        uniform = DensityOperator(np.eye(4) / 4, (2, 2), ("X", "B"))
        out = apply_map(rec, uniform)
        assert out.labels == ("A", "B")
        assert trace_distance(out.matrix, np.eye(4) / 4) < 1e-9

    def test_r4_on_sigma(self):
        rho = DensityOperator(
            tensor(ket_bra(KET_PLUS_Y), maximally_mixed(2)), (2, 2), ("A", "B")
        )
        rec = eur_recovery_map(rho, pauli_pvm("X"), pauli_pvm("Z"))
        sigma = measure(rho, pauli_pvm("X"), "A", "X")
        out = apply_map(rec, sigma)
        assert trace_distance(out.matrix, np.eye(4) / 4) < 1e-9

    def test_dimension_mismatch(self):
        rec = identity_map((2,))
        with pytest.raises(ValueError):
            apply_map(rec, random_multipartite_state((2, 2), 4, 1, ("X", "B")))


class TestVerifyCptp:
    def test_all_constructors_yield_channels(self):
        for seed in range(6):
            d = 2 + seed % 2
            sig = random_state(d, d, [seed, 61]).matrix
            chan = measurement_channel(random_pvm(d, [seed, 62]))
            assert verify_cptp(petz_map(sig, chan)).ok
            assert verify_cptp(rotated_petz_map(sig, chan)).ok
            rho = random_multipartite_state((d, d), d * d, [seed, 63], ("A", "B"))
            rec = eur_recovery_map(rho, random_pvm(d, [seed, 64]),
                                   random_pvm(d, [seed, 65]))
            assert verify_cptp(rec).ok

    def test_r3_kraus_completeness_direct_sum(self):
        from eurqsi.gallery import recovery_map_r3
        rec = recovery_map_r3()
        # K_x = sum_z (-1)^{xz} |zz><xz| on (X, B) -> (A', B)
        kets = np.eye(4)
        kraus = [sum((-1.0) ** (x * z) * np.outer(kets[3 * z], kets[2 * x + z]) for z in (0, 1))
                 for x in (0, 1)]
        assert np.abs(choi_from_kraus(kraus) - rec.choi).max() < 1e-12
        acc = np.zeros((4, 4), dtype=complex)
        for k in kraus:
            acc += dagger(k) @ k  # direct matrix-sum oracle
        assert np.abs(acc - np.eye(4)).max() < 1e-12
        report = verify_cptp(rec)
        # the Choi matrix's trace-preservation defect is that completeness
        # defect, transposed
        assert report.ok and report.trace_preservation_defect < 1e-12

    def test_trace_increasing_map_reported(self):
        eye = np.eye(2, dtype=complex)
        doubled = CpMap(choi=2 * choi_from_kraus([eye]), in_dims=(2,), out_dims=(2,))
        report = verify_cptp(doubled)
        assert report.cp_ok and not report.tp_ok
        assert abs(report.trace_preservation_defect - 1.0) < 1e-12


class TestRefinedMonotonicity:
    def test_inequality_on_random_instances(self):
        # D(rho||sigma) - D(N rho||N sigma) >= -log F(rho, R(N rho))
        worst = 0.0
        for seed in range(20):
            d = 2 + seed % 2
            rho = random_state(d, d, [seed, 41])
            sig = random_state(d, d, [seed, 42]).matrix
            chan = measurement_channel(random_pvm(d, [seed, 43]))
            rec = rotated_petz_map(sig, chan)
            gap = relative(rho, sig) - relative(
                DensityOperator(chan.apply_matrix(rho.matrix), (d,), ("X",)),
                chan.apply_matrix(sig),
            )
            f = fidelity(rho.matrix, rec.apply_matrix(chan.apply_matrix(rho.matrix)))
            worst = min(worst, gap + np.log2(f))
        assert worst >= -1e-6

    def test_refinement_never_weaker(self):
        # -log f >= 0 because fidelity is clipped to [0, 1]
        for seed in range(10):
            rho = random_multipartite_state((2, 2), 4, [seed, 51], ("A", "B"))
            xp, zp = random_pvm(2, [seed, 52]), random_pvm(2, [seed, 53])
            rec = eur_recovery_map(rho, xp, zp)
            sigma = measure(rho, xp, "A", "X")
            f = fidelity(rho.matrix, rec.apply_matrix(sigma.matrix))
            assert -np.log2(f) >= 0.0
