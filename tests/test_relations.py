import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eurqsi import entropy, gallery, linalg, recovery, relations, states
from eurqsi.entropy import relative, von_neumann
from eurqsi.linalg import EPS_SUPP, fidelity, support_eig, tensor
from eurqsi.relations import EurReport, check_bipartite, check_tripartite, fuzz
from eurqsi.serialize import canonical_json, scenario_from_dict, scenario_to_dict
from eurqsi.states import (
    DensityOperator,
    InvalidStateError,
    KET_0,
    KET_MINUS,
    KET_PLUS,
    KET_PLUS_Y,
    Pvm,
    _compressed,
    _measured,
    bell_phi,
    ket_bra,
    maximally_mixed,
    measure,
    pauli_pvm,
    pinch,
    purify,
    random_multipartite_state,
    random_pure_state,
    random_pvm,
    theta_state,
)

from conftest import (
    ROUND_OFF_MASSES,
    _reversibility_nd_oracle,
    bipartite_report_oracle,
    haar_unitary,
    rank2_plus_rank1_pvm,
    rotated_spectrum,
    shannon_bits,
    tripartite_report_oracle,
)


def state_ab(mat):
    return DensityOperator(mat, (2, 2), ("A", "B"))


X, Z = pauli_pvm("X"), pauli_pvm("Z")


class TestBipartite:
    def test_x_eigenstate_saturates_original(self):
        report = check_bipartite(state_ab(tensor(ket_bra(KET_PLUS), maximally_mixed(2))), X, Z)
        assert abs(report.lhs - 1.0) < 1e-9
        assert abs(report.rhs_original - 1.0) < 1e-9
        assert abs(report.f - 1.0) < 1e-6
        assert abs(report.rhs_refined - 1.0) < 1e-6

    def test_bell_state_negative_conditional_entropy(self):
        report = check_bipartite(
            DensityOperator.from_vector(bell_phi(), (2, 2), ("A", "B")), X, Z)
        assert abs(report.lhs) < 1e-9
        assert abs(report.rhs_original) < 1e-9  # 1 + (-1)
        assert abs(report.h_ab - (-1.0)) < 1e-9
        assert abs(report.f - 1.0) < 1e-6

    def test_y_eigenstate_saturates_refinement(self):
        report = check_bipartite(state_ab(tensor(ket_bra(KET_PLUS_Y), maximally_mixed(2))), X, Z)
        assert abs(report.lhs - 2.0) < 1e-9
        assert abs(report.rhs_original - 1.0) < 1e-9
        assert abs(report.f - 0.5) < 1e-6
        assert abs(report.rhs_refined - 2.0) < 1e-6
        assert abs(report.slack_refined) < 1e-6

    def test_h_ze_is_duality_consistent(self):
        report = check_bipartite(state_ab(tensor(ket_bra(KET_PLUS), maximally_mixed(2))), X, Z)
        assert abs((report.h_ze - report.h_zb) - (-report.h_ab)) < 1e-8

    def test_refuses_non_rank_one_z(self):
        rho = DensityOperator(np.eye(8) / 8, (4, 2), ("A", "B"))
        rank2 = Pvm((np.diag([1, 1, 0, 0]).astype(complex),
                     np.diag([0, 0, 1, 1]).astype(complex)))
        with pytest.raises(InvalidStateError):
            check_bipartite(rho, random_pvm(4, 0), rank2)

    def test_measured_subsystem_need_not_be_first(self):
        from eurqsi.states import random_multipartite_state
        rho = random_multipartite_state((2, 2), 4, 55, ("B", "A"))
        swapped = check_bipartite(rho, X, Z, measured="A")
        direct = check_bipartite(rho.permute(["A", "B"]), X, Z)
        for name in ("h_xb", "h_zb", "h_ab", "c", "f", "slack_refined"):
            assert abs(getattr(swapped, name) - getattr(direct, name)) < 1e-9


class TestTripartite:
    @pytest.mark.parametrize("dims, b_label, message", [
        ((2, 2, 2), "A", "A and B are the same subsystem 'A'"),
        ((2, 2), "B", "tripartite state has no E subsystem"),
    ], ids=["B is A", "no E"])
    def test_rejects_a_layout_without_three_parts(self, dims, b_label, message):
        rho = random_pure_state(dims, 17, ("A", "B", "E")[:len(dims)])
        with pytest.raises(InvalidStateError, match=message):
            check_tripartite(rho, X, Z, "A", b_label)

    def test_bell_with_trivial_eve(self):
        psi = np.kron(bell_phi(), KET_0)
        rho = DensityOperator.from_vector(psi, (2, 2, 2), ("A", "B", "E"))
        report = check_tripartite(rho, X, Z)
        assert abs(report.h_ze - 1.0) < 1e-9
        assert abs(report.h_xb) < 1e-9
        assert abs(report.f - 1.0) < 1e-6
        assert abs(report.slack_refined) < 1e-6

    def test_ghz_against_dense_oracle(self):
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
        rho = DensityOperator.from_vector(ghz, (2, 2, 2), ("A", "B", "E"))
        report = check_tripartite(rho, X, Z)
        # dense 8-dimensional oracle for the two key entropies:
        # Z on A of GHZ perfectly correlates with E -> H(Z|E) = 0
        # X on A leaves sigma_XB uniform -> H(X|B) = 1
        p_ze = np.zeros((2, 2))
        for z in range(2):
            amp = ghz.reshape(2, 2, 2)[z]
            for e in range(2):
                p_ze[z, e] = np.linalg.norm(amp[:, e]) ** 2
        h_ze_oracle = shannon_bits(p_ze.ravel()) - shannon_bits(p_ze.sum(axis=0))
        assert abs(report.h_ze - h_ze_oracle) < 1e-9
        assert abs(report.h_xb - 1.0) < 1e-9
        assert report.slack_original >= -1e-9
        assert report.slack_refined >= -1e-6

    def test_purified_product_state_matches_bipartite(self):
        rho_ab = state_ab(tensor(ket_bra(KET_PLUS), maximally_mixed(2)))
        rho_abe = purify(rho_ab, "E")
        tri = check_tripartite(rho_abe, X, Z)
        bi = check_bipartite(rho_ab, X, Z)
        for name in ("h_xb", "h_zb", "h_ab"):
            assert abs(getattr(tri, name) - getattr(bi, name)) < 1e-8
        # duality identity links the two reports
        assert abs((tri.h_ze - tri.h_zb) - (-tri.h_ab)) < 1e-8

    def test_rejects_mixed_without_flag(self):
        # a mixed input is refused and pointed to purify, which appends the
        # purifier to the E side
        rho = DensityOperator(np.eye(8) / 8, (2, 2, 2), ("A", "B", "E"))
        with pytest.raises(InvalidStateError, match="purify"):
            check_tripartite(rho, X, Z)
        report = check_tripartite(purify(rho, "R"), X, Z)
        assert report.slack_refined >= -1e-6

    def test_a_nearly_pure_matrix_is_read_as_its_largest_column(self):
        # purity 1 - 0.99e-8 counts as pure; the check evaluates the pure
        # state along the column of largest diagonal entry, not the mixture
        psi = random_pure_state((3, 2, 4), 320, ("A", "B", "E"))._vector
        eps = 0.99e-8 / (2 * (1 - 1 / 24))
        rho = DensityOperator((1 - eps) * ket_bra(psi) + eps * np.eye(24) / 24, (3, 2, 4),
                              ("A", "B", "E"))
        assert 1 - 1e-8 <= rho.purity() < 1
        xp, zp = random_pvm(3, [320, 1]), random_pvm(3, [320, 2])
        k = np.argmax(rho.matrix.diagonal().real)
        column = DensityOperator.from_vector(rho.matrix[:, k], rho.dims, rho.labels)
        _assert_reports_agree(check_tripartite(rho, xp, zp),
                              check_tripartite(column, xp, zp).to_dict(), 1e-14)
        _assert_reports_agree(check_tripartite(rho, xp, zp), check_tripartite(
            DensityOperator.from_vector(psi, rho.dims, rho.labels), xp, zp).to_dict(), 1e-9)

    def test_non_rank_one_z_allowed(self):
        rank2_z = Pvm((np.diag([1, 1, 0, 0]).astype(complex),
                       np.diag([0, 0, 1, 1]).astype(complex)))
        x4 = random_pvm(4, 2)
        rho = purify(
            DensityOperator(np.eye(8) / 8, (4, 2), ("A", "B")), "E"
        )
        report = check_tripartite(rho, x4, rank2_z)
        assert report.slack_refined >= -1e-6
        assert report.slack_refined <= report.slack_original + 1e-9


def _assert_reports_agree(got, want, tol=1e-12):
    """``got``, an EurReport, against ``want``, an oracle's dict: all 14
    keys, within ``tol``."""
    got = got.to_dict()
    assert len(got) == 14 and got.keys() == want.keys()
    for key, b in want.items():
        a = got[key]
        if isinstance(a, str):
            assert a == b
        else:
            assert abs(a - b) <= tol, (key, a, b)


MARGINAL_CASES = {
    "2x2 pauli": (random_multipartite_state((2, 2), 4, 301, ("A", "B")), X, Z),
    "3x3 haar": (random_multipartite_state((3, 3), 9, 302, ("A", "B")),
                 random_pvm(3, [302, 1]), random_pvm(3, [302, 2])),
    "3x2 rank-2 z": (random_multipartite_state((3, 2), 6, 303, ("A", "B")),
                     random_pvm(3, [303, 1]), rank2_plus_rank1_pvm([303, 2])),
    # X has more range slots than Z: Z's blocks are corners of the joint stack
    "3x2 rank-2 x": (random_multipartite_state((3, 2), 6, 308, ("A", "B")),
                     rank2_plus_rank1_pvm([308, 1]), random_pvm(3, [308, 2])),
    "3x3 rank-2 rho": (random_multipartite_state((3, 3), 2, 304, ("A", "B")),
                       random_pvm(3, [304, 1]), random_pvm(3, [304, 2])),
}


class TestMeasuredMarginals:
    """Measuring the AB or AE marginal gives the numbers of measuring the
    whole state and reducing afterwards."""

    @pytest.mark.parametrize("case", sorted(MARGINAL_CASES))
    def test_tripartite_matches_full_state_oracle(self, case):
        rho_ab, xp, zp = MARGINAL_CASES[case]
        rho_abe = purify(rho_ab, "E")
        _assert_reports_agree(check_tripartite(rho_abe, xp, zp),
                              tripartite_report_oracle(rho_abe, xp, zp))

    @pytest.mark.parametrize("case", sorted(c for c in MARGINAL_CASES if "rank-2 z" not in c))
    def test_bipartite_matches_full_state_oracle(self, case):
        rho_ab, xp, zp = MARGINAL_CASES[case]
        _assert_reports_agree(check_bipartite(rho_ab, xp, zp),
                              bipartite_report_oracle(rho_ab, xp, zp))

    def test_purify_if_mixed_matches_full_state_oracle(self):
        rho = random_multipartite_state((3, 2, 2), 3, 305, ("A", "B", "E"))
        xp, zp = random_pvm(3, [305, 1]), random_pvm(3, [305, 2])
        _assert_reports_agree(
            check_tripartite(purify(rho, "R"), xp, zp),
            tripartite_report_oracle(rho, xp, zp, purify_if_mixed=True),
        )

    def test_no_state_beyond_the_measured_marginals(self, monkeypatch):
        # the inputs are validated when they are constructed; the checks then
        # run on arrays and construct no state and no map
        rho_ab = random_multipartite_state((3, 3), 9, 306, ("A", "B"))
        rho_abe = purify(rho_ab, "E")
        # a mixed ABE state, purified before counting: E is two subsystems
        rho_aber = purify(random_multipartite_state((3, 2, 2), 3, 306, ("A", "B", "E")), "R")
        xp, zp = random_pvm(3, [306, 1]), random_pvm(3, [306, 2])
        built, maps = [], []
        post_init = DensityOperator.__post_init__
        map_post_init = recovery.CpMap.__post_init__

        def counting_post_init(self):
            post_init(self)
            built.append(self.dim)

        def counting_map_post_init(self):
            map_post_init(self)
            maps.append(self.in_dim)

        monkeypatch.setattr(DensityOperator, "__post_init__", counting_post_init)
        monkeypatch.setattr(recovery.CpMap, "__post_init__", counting_map_post_init)
        check_tripartite(rho_abe, xp, zp)
        check_bipartite(rho_ab, xp, zp)
        check_tripartite(rho_aber, xp, zp)
        assert built == []
        assert maps == []

    @pytest.mark.parametrize("case", ["2x2 pauli", "3x3 haar", "3x2 rank-2 z"])
    def test_each_check_reduces_to_b_once_and_decomposes_rho_ab_once(self, case, monkeypatch):
        # no layout call at all: the bipartite check's measured subsystem is
        # already first, so no reorder, and the tripartite check reads the
        # kept vector of its input, never the matrix, and sums rho_AB from
        # its columns; rho_B and rho_E are sums of measured blocks.  No
        # apply_local: tau's spectrum comes from the blocks of rho_AB in Z's
        # range basis, which also give H(ZB).  One _local_stack call
        # compresses rho_AB to X's and Z's ranges at once.
        # Eigensolves: rho_AB (H(AB), purification, its factor in f), the AB
        # block stack (H(B), H(XB), H(ZB) and, for one range slot, tau), the
        # AE block stack (H(ZE), H(E)), the blocks of N(tau) and the matrix of
        # R(sigma_XB) on tau's support: 5.  A rank-2 Z adds one eigensolve of
        # its range blocks for tau: 6.  One SVD, of the fidelity's factor
        # overlap: c comes from the overlap of the two bases, which every PVM
        # holds from its construction.
        rho_ab, _, _ = MARGINAL_CASES[case]
        d = rho_ab.dims[0]
        rho_abe = purify(rho_ab, "E")
        if d == 2:
            xp, zp = pauli_pvm("X"), pauli_pvm("Z")
        elif "rank-2 z" in case:
            xp, zp = Pvm.from_basis(haar_unitary(d, [307, 1]).T), rank2_plus_rank1_pvm([307, 2])
        else:
            xp, zp = (Pvm.from_basis(haar_unitary(d, [307, k]).T) for k in (1, 2))
        counts = {"in_order": 0, "trace": 0, "apply_local": 0, "local_stack": 0, "eig": 0,
                  "svd": 0, "prod": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        in_order = linalg._in_order

        def tracing(m, dims, order):
            # every partial trace of the package is an _in_order call that
            # drops a subsystem
            counts["in_order"] += 1
            counts["trace"] += len(order) < len(dims)
            return in_order(m, dims, order)

        for mod in (relations, recovery, states, entropy, linalg):
            if hasattr(mod, "_in_order"):
                monkeypatch.setattr(mod, "_in_order", tracing)
            if hasattr(mod, "apply_local"):
                monkeypatch.setattr(mod, "apply_local", counted("apply_local", mod.apply_local))
            if hasattr(mod, "_local_stack"):
                monkeypatch.setattr(mod, "_local_stack", counted("local_stack", mod._local_stack))
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted("eig", getattr(np.linalg, name)))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        norm = np.linalg.norm

        def counted_norm(x, ord=None, *args, **kwargs):
            # a matrix 2-norm reaches numpy's svd without the patched name
            counts["svd"] += ord in (2, -2, "nuc")
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        monkeypatch.setattr(np, "prod", counted("prod", np.prod))
        # any read of the matrix of the vector-built input fails
        object.__setattr__(rho_abe, "matrix", None)
        checks = [(check_tripartite, rho_abe)]
        if zp.is_rank_one():
            checks.insert(0, (check_bipartite, rho_ab))
        for check, rho in checks:
            counts.update(dict.fromkeys(counts, 0))
            check(rho, xp, zp)
            assert counts["in_order"] == counts["trace"] == 0, check.__name__
            assert counts["apply_local"] == 0, check.__name__
            assert counts["local_stack"] == 1, check.__name__
            assert counts["eig"] == (5 if zp.is_rank_one() else 6), check.__name__
            assert counts["svd"] == 1, check.__name__
            assert counts["prod"] == 0, check.__name__

    def test_a_zero_projector_keeps_the_shared_eigensolve_exact(self, monkeypatch):
        # ranks (1, 1, 1, 0): not rank one, yet one range slot, so the Z
        # stack is still the range blocks, and tau shares their eigensolve
        rho_ab, xp, zp = MARGINAL_CASES["3x3 haar"]
        padded = Pvm(zp.projectors + (np.zeros((3, 3)),))
        assert padded.ranks() == (1, 1, 1, 0) and padded._ranges.shape[1] == 1
        rho_abe = purify(rho_ab, "E")
        want = check_tripartite(rho_abe, xp, zp).to_dict()
        calls = []
        for name in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, fn=fn: calls.append(1) or fn(*a))
        _assert_reports_agree(check_tripartite(rho_abe, xp, padded), want)
        assert len(calls) == 5

    def test_recovery_channel_builds_two_maps_and_no_state(self, monkeypatch):
        # eur_recovery_map builds the measurement N = M_X (x) id from the
        # PVM's Kraus operators and runs the one Petz builder on the pinched
        # input's array: two maps (N and R, the completion folded into R's
        # Choi matrix before it is checked), one Cholesky each (the PSD
        # check of a Choi matrix), one Choi matrix from Kraus operators (N's),
        # no state validated, and the pinched state not checked again
        rho_ab, xp, zp = MARGINAL_CASES["3x3 haar"]
        xp.kraus, zp.kraus  # cached before counting
        counts = {"CpMap": 0, "DensityOperator": 0, "choi_from_kraus": 0, "cholesky": 0,
                  "is_hermitian": 0, "_petz": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(recovery.CpMap, "__post_init__",
                            counted("CpMap", recovery.CpMap.__post_init__))
        monkeypatch.setattr(DensityOperator, "__post_init__",
                            counted("DensityOperator", DensityOperator.__post_init__))
        for name in ("choi_from_kraus", "is_hermitian", "_petz"):
            monkeypatch.setattr(recovery, name, counted(name, getattr(recovery, name)))
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        rec = recovery.eur_recovery_map(rho_ab, xp, zp)
        assert counts == {"CpMap": 2, "DensityOperator": 0, "choi_from_kraus": 1, "cholesky": 2,
                          "is_hermitian": 0, "_petz": 1}
        assert rec.in_dims == (3, 3) and rec.out_dims == (3, 3)
        assert rec.in_labels == ("X", "B") and rec.out_labels == ("A", "B")
        assert np.array_equal(rec.support, np.eye(9))


def _small_x_block_case():
    """Qubit A in a Z eigenstate tilted by sin^2(theta) = 1e-11 off |0>, and
    X the computational basis: the block x = 1 of N(tau) has weight 1e-11,
    so its whole spectrum falls below EPS_SUPP times the top of N(tau)."""
    s = np.sqrt(1e-11)
    c = np.sqrt(1.0 - 1e-11)
    z_pvm = Pvm.from_basis([np.array([c, s]), np.array([-s, c])])
    rho_b = random_multipartite_state((2,), 2, 311, ("B",)).matrix
    rho = DensityOperator(np.kron(z_pvm.projectors[0], rho_b), (2, 2), ("A", "B"))
    return rho, pauli_pvm("Z"), z_pvm, "A"


F_CASES = {
    "2x2 pauli": MARGINAL_CASES["2x2 pauli"] + ("A",),
    "3x3 haar": MARGINAL_CASES["3x3 haar"] + ("A",),
    "3x2 rank-2 z": MARGINAL_CASES["3x2 rank-2 z"] + ("A",),
    "3x3 rank-2 rho": MARGINAL_CASES["3x3 rank-2 rho"] + ("A",),
    "3x3 rank-1 rho": (random_multipartite_state((3, 3), 1, 312, ("A", "B")),
                       random_pvm(3, [312, 1]), random_pvm(3, [312, 2]), "A"),
    "3x2 rank-2 x": (random_multipartite_state((3, 2), 6, 313, ("A", "B")),
                     rank2_plus_rank1_pvm([313, 1]), random_pvm(3, [313, 2]), "A"),
    "2x3 measured B": (random_multipartite_state((2, 3), 4, 314, ("A", "B")),
                       random_pvm(3, [314, 1]), random_pvm(3, [314, 2]), "B"),
    "p(x) 1e-11": _small_x_block_case(),
}


@pytest.mark.parametrize("case", sorted(F_CASES))
def test_block_reversibility_matches_the_recovery_channel(case):
    # the Choi path: apply_map(rotated_petz_map(pinched, M_X (x) id), sigma_XB)
    rho, xp, zp, measured = F_CASES[case]
    sigma = measure(rho, xp, measured, "X")
    first = rho.permute([measured] + [s for s in rho.labels if s != measured])
    m, dims = first.matrix, first.dims
    got = relations._reversibility(np.linalg.eigh(_compressed(m, dims, [zp], 0)), xp, zp,
                                   _measured(m, dims, xp, 0), support_eig(m))
    assert abs(got - _reversibility_nd_oracle(rho, xp, zp, sigma, measured)) <= 1e-12


# Spectra of valid two-qubit states with round-off negative eigenvalues, and
# one with eigenvalues at 2x and 0.5x the support cutoff.
ROUND_OFF_SPECTRA = {
    **{f"mass {m:g}": [0.6, 0.3, 0.1 + m, -m] for m in ROUND_OFF_MASSES},
    "straddling the cutoff": [0.6, 0.4 - 1.5e-10, 2 * EPS_SUPP * 0.6, 0.5 * EPS_SUPP * 0.6],
}


def _round_off_states():
    """Each spectrum in a Haar basis, and block diagonal in Z on A, where the
    pinched state keeps every eigenvalue, so the small ones reach the
    recovery."""
    for name, vals in ROUND_OFF_SPECTRA.items():
        yield name + ", haar", state_ab(rotated_spectrum(vals, 3))
        blocks = (np.kron(np.diag([1.0, 0.0]), rotated_spectrum([vals[0], vals[3]], 3))
                  + np.kron(np.diag([0.0, 1.0]), rotated_spectrum([vals[1], vals[2]], 4)))
        yield name + ", z blocks", state_ab(blocks)


def test_round_off_negative_eigenvalue_state_is_checked():
    for name, rho in _round_off_states():
        reports = (check_bipartite(rho, X, Z),
                   check_tripartite(purify(rho, "E"), X, Z))
        for report in reports:
            assert 0.0 <= report.f <= 1.0, name
            assert report.slack_refined <= report.slack_original + 1e-9, name
        # f is the fidelity through the explicit channel, which is CPTP
        rec = recovery.eur_recovery_map(rho, X, Z)
        assert recovery.verify_cptp(rec).ok, name
        recovered = recovery.apply_map(rec, measure(rho, X, "A", "X"))
        assert abs(reports[0].f - fidelity(rho.matrix, recovered.matrix)) < 1e-12, name
        # D(rho || tau) = H(tau) - H(rho) for the pinched state tau
        tau = pinch(rho, Z, "A")
        h_gap = von_neumann(tau) - von_neumann(rho)
        assert abs(relative(rho, tau.matrix) - h_gap) < 1e-12, name
        assert abs(relative(rho, rho.matrix)) < 1e-12, name


def test_state_with_reductions_beyond_the_threshold_is_checked():
    # smallest eigenvalue -9e-9, which DensityOperator accepts; the B
    # marginal has -2.7e-8 and the kept spectrum sums to 1 + 2.7e-8
    m = (np.kron(np.eye(3) / 3, np.diag([0.0, 1.0, 1.0]) / 2)
         - 0.9e-8 * np.kron(np.eye(3), np.diag([1.0, 0.0, 0.0])))
    rho = DensityOperator(m / np.trace(m), (3, 3), ("A", "B"))
    assert np.linalg.eigvalsh(rho.matrix).min() < -8e-9
    for seed in range(3):
        xp, zp = random_pvm(3, [seed, 1]), random_pvm(3, [seed, 2])
        for report in (check_bipartite(rho, xp, zp),
                       check_tripartite(purify(rho, "E"), xp, zp)):
            assert 0.0 <= report.f <= 1.0
            assert report.slack_refined <= report.slack_original + 1e-9


@pytest.mark.parametrize("which", ["x", "z"])
def test_pvm_dimension_must_match_the_measured_subsystem(which):
    rho_ab = random_multipartite_state((3, 2), 6, 315, ("A", "B"))
    rho_abe = purify(rho_ab, "E")
    pvms = {"x": random_pvm(3, [315, 1]), "z": random_pvm(3, [315, 2])}
    pvms[which] = random_pvm(2, [315, 3])
    with pytest.raises(InvalidStateError, match="PVM dimension"):
        check_bipartite(rho_ab, pvms["x"], pvms["z"])
    with pytest.raises(InvalidStateError, match="PVM dimension"):
        check_tripartite(rho_abe, pvms["x"], pvms["z"])
    # every other function taking a PVM for A runs the same check
    with pytest.raises(InvalidStateError, match="PVM dimension"):
        pinch(rho_ab, pvms[which], "A")
    with pytest.raises(InvalidStateError, match="PVM dimension"):
        theta_state(rho_ab, pvms["x"], pvms["z"])
    with pytest.raises(InvalidStateError, match="PVM dimension"):
        recovery.eur_recovery_map(rho_ab, pvms["x"], pvms["z"])
    with pytest.raises(InvalidStateError, match="PVM dimension"):
        scenario_from_dict(scenario_to_dict(rho_ab, pvms["x"], pvms["z"]))


@st.composite
def instances(draw):
    """A random AB state of any rank, d_A, d_B in {2, 3}, and rank-one X and
    Z on the measured side, A or B.  Half the states are near pure,
    (1 - eps) pure + eps full rank with eps in [1e-13, 1e-7], so their small
    eigenvalues fall on either side of the support cutoff EPS_SUPP."""
    d_a, d_b = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3]))
    seed = draw(st.integers(0, 2**32 - 1))
    measured = draw(st.sampled_from(["A", "B"]))
    if draw(st.booleans()):
        eps = 10.0 ** draw(st.floats(-13.0, -7.0))
        pure, full = (random_multipartite_state((d_a, d_b), rank, [seed, k], ("A", "B")).matrix
                      for k, rank in ((0, 1), (3, d_a * d_b)))
        rho = DensityOperator((1.0 - eps) * pure + eps * full, (d_a, d_b), ("A", "B"))
    else:
        rank = draw(st.integers(1, d_a * d_b))
        rho = random_multipartite_state((d_a, d_b), rank, [seed, 0], ("A", "B"))
    d = rho.dims[rho.label_index(measured)]
    return rho, random_pvm(d, [seed, 1]), random_pvm(d, [seed, 2]), measured


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(instances())
def test_reports_match_the_oracles(instance):
    rho, xp, zp, measured = instance
    side = "B" if measured == "A" else "A"
    rho_abe = purify(rho, "E")
    # the duality H(Z|E) - H(Z|B) = -H(A|B) of a rank-one Z on a pure ABE
    # state: the tripartite report takes both sides from one pure state; the
    # bipartite one purifies rho_AB cut to its support, while H(Z|B) comes
    # from the uncut rho_AB, so near-pure inputs leave it up to ~1e-8
    for got, want, duality_tol in (
        (check_bipartite(rho, xp, zp, measured),
         bipartite_report_oracle(rho, xp, zp, measured), 1e-8),
        (check_tripartite(rho_abe, xp, zp, measured, side),
         tripartite_report_oracle(rho_abe, xp, zp, measured, side), 1e-13),
    ):
        _assert_reports_agree(got, want)
        assert 0.0 <= got.f <= 1.0
        assert got.slack_refined <= got.slack_original + 1e-9
        assert abs(got.h_ze - got.h_zb + got.h_ab) <= duality_tol, got.relation_id
    # the checks run with the measured subsystem first, so the order of the
    # input's subsystems changes no bit of the report
    assert (check_bipartite(rho.permute([measured, side]), xp, zp, measured).to_dict()
            == check_bipartite(rho, xp, zp, measured).to_dict())
    assert (check_tripartite(rho_abe.permute([side, measured, "E"]), xp, zp, measured, side)
            .to_dict() == check_tripartite(rho_abe, xp, zp, measured, side).to_dict())


@st.composite
def pure_abe_states(draw):
    """A pure ABE state made from its vector: d_A, d_B in {2, 3}, rho_AB of
    any rank r, E split over two subsystems E and F with d_E d_F >= r, and
    the four subsystems in a drawn order; with rank-one X on A and a Z that
    is rank one or, at d_A = 3, has a rank-2 projector, and the seed."""
    d_a, d_b = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3]))
    rank = draw(st.integers(1, d_a * d_b))
    d_e = draw(st.integers(1, 3))
    d_f = -(-rank // d_e) + draw(st.integers(0, 1))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng([seed, 0])
    g = rng.normal(size=(d_a * d_b, rank)) + 1j * rng.normal(size=(d_a * d_b, rank))
    # r orthonormal rows on EF: rho_AB = g g^dag, of rank r
    psi = g @ haar_unitary(d_e * d_f, [seed, 3])[:rank]
    state = DensityOperator.from_vector(psi, (d_a, d_b, d_e, d_f), ("A", "B", "E", "F"))
    state = state.permute(draw(st.permutations(["A", "B", "E", "F"])))
    coarse = d_a == 3 and draw(st.booleans())
    zp = rank2_plus_rank1_pvm([seed, 2]) if coarse else random_pvm(d_a, [seed, 2])
    return state, random_pvm(d_a, [seed, 1]), zp, seed


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(pure_abe_states())
def test_a_pure_state_given_as_its_matrix_gives_the_report_of_its_vector(case):
    # the check reads a vector-built state's vector and takes a matrix's
    # column of largest diagonal entry: one pure state, two inputs
    state, xp, zp, _ = case
    as_matrix = DensityOperator(state.matrix, state.dims, state.labels)
    assert as_matrix._vector is None
    _assert_reports_agree(check_tripartite(as_matrix, xp, zp),
                          check_tripartite(state, xp, zp).to_dict())


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(pure_abe_states())
def test_a_unitary_on_e_leaves_the_six_scalars(case):
    # every purification of rho_AB gives the same six scalars; c does not
    # read the state at all
    state, xp, zp, seed = case
    pure = purify(state.reduce(["A", "B"]), "R")
    u = haar_unitary(pure.dims[-1], [seed, 4])
    turned = DensityOperator.from_vector(pure._vector.reshape(-1, len(u)) @ u.T, pure.dims,
                                         pure.labels)
    got, want = check_tripartite(turned, xp, zp), check_tripartite(pure, xp, zp)
    assert got.c == want.c
    for name in ("h_xb", "h_zb", "h_ze", "h_ab", "f"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-13, name


@st.composite
def near_pure_factors(draw):
    """A factor G of rho_AB = G G^dag, rows on (A, B) and one column per
    eigenvector: spectrum (1, u_1 eps, ...) normalized, u_k uniform in
    [0.2, 0.9], in a Haar basis, eps 0 or a decade from 1e-14 to 1e-2, so
    the small eigenvalues sit inside their decade, clear of the support
    cutoff.  With the unitaries whose columns are X's and Z's bases (Z's
    first two columns one rank-2 projector when ``coarse``), eps and the
    seed; d_A, d_B in {2, 3}."""
    d_a, d_b = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3]))
    eps = draw(st.sampled_from([0.0] + [10.0 ** k for k in range(-14, -1)]))
    coarse = d_a == 3 and draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    d = d_a * d_b
    small = eps * np.random.default_rng([seed, 0]).uniform(0.2, 0.9, size=d - 1)
    spectrum = np.concatenate([[1.0], small]) / (1.0 + small.sum())
    g = haar_unitary(d, [seed, 1]) * np.sqrt(spectrum)
    return g, (d_a, d_b), haar_unitary(d_a, [seed, 2]), haar_unitary(d_a, [seed, 3]), coarse, \
        eps, seed


def _pvms_of_bases(ux, uz, coarse):
    """X and Z with the bases in the columns of ``ux`` and ``uz``, Z's first
    two columns one rank-2 projector when ``coarse``."""
    xp = Pvm.from_basis(ux.T)
    zp = (Pvm((uz[:, :2] @ uz[:, :2].conj().T, uz[:, 2:] @ uz[:, 2:].conj().T)) if coarse
          else Pvm.from_basis(uz.T))
    return xp, zp


def _reports_of_factor(g, dims, ux, uz, coarse):
    """Both checks on the state with factor ``g``, X and Z the bases in the
    columns of ``ux`` and ``uz``: the bipartite check on G G^dag, unless Z
    is coarse, and the tripartite check on G read as the vector psi_ABE."""
    xp, zp = _pvms_of_bases(ux, uz, coarse)
    reports = [check_tripartite(
        DensityOperator.from_vector(g, dims + (g.shape[1],), ("A", "B", "E")), xp, zp)]
    if not coarse:
        reports.append(check_bipartite(DensityOperator(g @ g.conj().T, dims, ("A", "B")),
                                       xp, zp))
    return reports


def _invariance_bounds(eps):
    """Bounds on the change of (each entropy, c, f) under a symmetry when
    the small eigenvalues lie in [0.2 eps, 0.9 eps], about three times the
    largest change measured on 80 inputs per decade.  Below the support
    cutoff those eigenvalues are dropped, and every scalar moves by
    round-off.  Above it an entropy moves up to 2.6e-14, and f follows its
    Holder-1/2 conditioning at the edge of the support: measured 6.4e-12 at
    1e-9, 7.0e-13 at 1e-7, 2.1e-14 at 1e-4."""
    if 0.9 * eps < EPS_SUPP:
        return 1e-14, 2e-15, 1e-14
    return 5e-14, 2e-15, 1e-14 + 4e-16 / math.sqrt(0.2 * eps)


def _assert_invariant(got, want, eps, c_exact):
    h_tol, c_tol, f_tol = _invariance_bounds(eps)
    for a, b in zip(got, want, strict=True):
        assert a.relation_id == b.relation_id
        for name in ("h_xb", "h_zb", "h_ze", "h_ab"):
            assert abs(getattr(a, name) - getattr(b, name)) <= h_tol, (a.relation_id, name)
        assert a.c == b.c if c_exact else abs(a.c - b.c) <= c_tol, a.relation_id
        assert abs(a.f - b.f) <= f_tol, a.relation_id


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(near_pure_factors())
def test_a_unitary_on_b_leaves_the_six_scalars(case):
    g, (d_a, d_b), ux, uz, coarse, eps, seed = case
    u = np.kron(np.eye(d_a), haar_unitary(d_b, [seed, 4]))
    _assert_invariant(_reports_of_factor(u @ g, (d_a, d_b), ux, uz, coarse),
                      _reports_of_factor(g, (d_a, d_b), ux, uz, coarse), eps, c_exact=True)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(near_pure_factors(), st.integers(1, 2))
def test_an_isometric_embedding_of_b_leaves_the_six_scalars(case, extra):
    # B embedded in a space of dimension d_B + extra: rho_AB on the larger
    # space has d_A * extra exact zero eigenvalues, which the support cut
    # must drop as it drops round-off
    g, (d_a, d_b), ux, uz, coarse, eps, seed = case
    v = np.kron(np.eye(d_a), haar_unitary(d_b + extra, [seed, 5])[:, :d_b])
    _assert_invariant(_reports_of_factor(v @ g, (d_a, d_b + extra), ux, uz, coarse),
                      _reports_of_factor(g, (d_a, d_b), ux, uz, coarse), eps, c_exact=True)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(near_pure_factors())
def test_a_unitary_on_a_and_both_pvms_leaves_the_six_scalars(case):
    g, (d_a, d_b), ux, uz, coarse, eps, seed = case
    w = haar_unitary(d_a, [seed, 6])
    _assert_invariant(
        _reports_of_factor(np.kron(w, np.eye(d_b)) @ g, (d_a, d_b), w @ ux, w @ uz, coarse),
        _reports_of_factor(g, (d_a, d_b), ux, uz, coarse), eps, c_exact=False)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(near_pure_factors())
def test_complex_conjugation_changes_no_bit_of_the_reports(case):
    # every kernel step on the conjugated inputs is the conjugate of the
    # same step, rounded alike, so the real scalars are equal bit for bit
    g, dims, ux, uz, coarse, _, _ = case
    got = _reports_of_factor(g.conj(), dims, ux.conj(), uz.conj(), coarse)
    want = _reports_of_factor(g, dims, ux, uz, coarse)
    assert [r.to_dict() for r in got] == [r.to_dict() for r in want]


# The proof of the refinement (Coles et al., PRL 108, 210405) term by term.
# With tau = sum_z (Z_z (x) I) rho_AB (Z_z (x) I) and N the X measurement:
# H(Z|E) of a pure psi_ABE is D(rho_AB || tau), which for a rank-one Z is
# H(Z|B) - H(A|B); the recoverability gap D(rho || tau) - D(sigma_XB || N(tau))
# + log f and the incompatibility gap D(sigma_XB || N(tau)) + log c + H(X|B)
# are each non-negative and sum to slack_refined.


def _proof_terms(rho, xp, zp):
    """D(rho_AB || tau) and D(sigma_XB || N(tau)) in bits, A measured, from
    the public relative, pinch and measure, which share no code path with
    the checks' kernel beyond the support cut.  N(tau) is measure(tau, X),
    as theta_state, which needs a rank-one Z, would give it."""
    tau = pinch(rho, zp, "A")
    return (relative(rho, tau.matrix),
            relative(measure(rho, xp, "A", "X"), measure(tau, xp, "A", "X").matrix))


def _proof_gaps(report, terms):
    """The report's H(Z|E) (tripartite) or H(Z|B) - H(A|B) (bipartite)
    minus D(rho_AB || tau), the recoverability gap and the incompatibility
    gap, from the ``terms`` of :func:`_proof_terms`."""
    d_tau, d_n = terms
    h_z = report.h_ze if report.relation_id.startswith("tripartite") else report.h_zb - report.h_ab
    return h_z - d_tau, d_tau - d_n + math.log2(report.f), d_n + math.log2(report.c) + report.h_xb


def _proof_bounds(eps):
    """Bounds on the identity and the gap sum, and on how far below 0 a gap
    may go, for small eigenvalues in [0.2 eps, 0.9 eps]: about three times
    the largest error measured on 240 inputs per decade, Pauli X and Z among
    them.  Below the support cutoff, where the checks and the relative
    entropies drop those eigenvalues, the incompatibility gap of a Pauli
    pair, 0 in exact arithmetic, goes down to about -1.4 eps (measured
    -1.6e-13 at 1e-13, -7.1e-11 at 1e-10); the identity is off by at most
    8.7e-15 there, an exact rank included.  Above the cutoff the identity
    is off by at most 1.5e-14 (at 1e-8), and a gap goes down to -8.7e-15."""
    if 0.9 * eps < EPS_SUPP:
        return 3e-14, 1e-14 + 5.0 * eps
    return 5e-14, 3e-14


def _assert_proof_chain(reports, terms, eps):
    identity_tol, gap_tol = _proof_bounds(eps)
    for report in reports:
        identity, recoverability, incompatibility = _proof_gaps(report, terms)
        assert abs(identity) <= identity_tol, report.relation_id
        assert recoverability >= -gap_tol, report.relation_id
        assert incompatibility >= -gap_tol, report.relation_id
        assert abs(recoverability + incompatibility - report.slack_refined) <= identity_tol, \
            report.relation_id


@st.composite
def proof_instances(draw):
    """rho_AB on 2x2, 2x3 or 3x3 of rank 1, 2 or full; for a qubit A Pauli X
    and Z or Haar-random rank-one ones, and for a qutrit A a Haar-random X
    and a Z that is rank one or coarse, with a rank-2 projector."""
    dims = draw(st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    rank = draw(st.sampled_from([1, 2, dims[0] * dims[1]]))
    seed = draw(st.integers(0, 2**32 - 1))
    rho = random_multipartite_state(dims, rank, [seed, 0], ("A", "B"))
    if dims[0] == 2 and draw(st.booleans()):
        return rho, X, Z, False
    coarse = dims[0] == 3 and draw(st.booleans())
    zp = rank2_plus_rank1_pvm([seed, 2]) if coarse else random_pvm(dims[0], [seed, 2])
    return rho, random_pvm(dims[0], [seed, 1]), zp, coarse


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(proof_instances())
def test_the_proof_holds_term_by_term(instance):
    # both checks, the tripartite one on a purification; a coarse Z has no
    # bipartite check, and its H(Z|E) is D(rho || tau) all the same
    rho, xp, zp, coarse = instance
    reports = [check_tripartite(purify(rho, "E"), xp, zp)]
    if not coarse:
        reports.append(check_bipartite(rho, xp, zp))
    _assert_proof_chain(reports, _proof_terms(rho, xp, zp), 0.0)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(near_pure_factors(), st.booleans())
def test_the_proof_holds_term_by_term_on_near_pure_states(case, pauli):
    # a qubit A takes Pauli X and Z when drawn: their incompatibility gap is
    # 0 in exact arithmetic
    g, dims, ux, uz, coarse, eps, _ = case
    if pauli and dims[0] == 2:
        ux, uz = np.column_stack([KET_PLUS, KET_MINUS]), np.eye(2)
    rho = DensityOperator(g @ g.conj().T, dims, ("A", "B"))
    _assert_proof_chain(_reports_of_factor(g, dims, ux, uz, coarse),
                        _proof_terms(rho, *_pvms_of_bases(ux, uz, coarse)), eps)


@pytest.mark.parametrize("case_id", gallery.CASE_IDS)
def test_the_gallery_cases_close_both_gaps(case_id):
    # each case saturates the refined relation with both gaps at once
    case = gallery.build(case_id)
    rho, xp, zp = case.rho_ab, case.x_pvm, case.z_pvm
    terms = _proof_terms(rho, xp, zp)
    for report in (check_bipartite(rho, xp, zp), check_tripartite(purify(rho, "E"), xp, zp)):
        _, recoverability, incompatibility = _proof_gaps(report, terms)
        assert abs(recoverability) <= 1e-15 and abs(incompatibility) <= 1e-15, report.relation_id


class TestEurReportInvariants:
    SCALARS = dict(h_xb=1.0, h_zb=1.0, h_ze=1.0, h_ab=0.0, c=0.5, f=1.0)

    def _base(self, relation_id="bipartite_refined", **kw):
        return EurReport(relation_id, **{**self.SCALARS, **kw})

    def test_takes_the_six_scalars_and_derives_the_rest(self):
        init = [fld.name for fld in dataclasses.fields(EurReport) if fld.init]
        assert init == ["relation_id", "h_xb", "h_zb", "h_ze", "h_ab", "c", "f"]
        with pytest.raises(TypeError):
            self._base(slack_refined=1.0)

    def test_rejects_unknown_relation(self):
        with pytest.raises(ValueError, match="unknown relation_id"):
            self._base("pentapartite")

    def test_rejects_loosening_refinement(self):
        # the refined slack exceeds the original exactly when log2 f > 0
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            self._base(f=1.5)

    @pytest.mark.parametrize("f", [-0.25, float("nan")])
    def test_rejects_f_with_no_logarithm(self, f):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            self._base(f=f)

    def test_carries_a_violated_inequality(self):
        # lhs 0.2 against -log2 0.5 + 0.1 = 1.1, refined by -log2 0.25 = 2
        report = self._base(h_xb=0.1, h_zb=0.1, h_ab=0.1, f=0.25)
        assert abs(report.slack_original - (0.2 - 1.1)) <= 1e-12
        assert abs(report.slack_refined - (0.2 - 3.1)) <= 1e-12
        assert report.to_dict()["slack_refined"] == report.slack_refined
        assert report.slack_refined < -report.fidelity_tolerance

    @pytest.mark.parametrize("relation_id", relations.RELATION_IDS)
    def test_derived_fields_match_independent_arithmetic(self, relation_id):
        scalars = dict(h_xb=0.3, h_zb=0.7, h_ze=0.9, h_ab=-0.4, c=0.5, f=0.8)
        report = EurReport(relation_id, **scalars)
        if relation_id.startswith("bipartite"):
            lhs, rhs = 0.7 + 0.3, 1.0 - 0.4
        else:
            lhs, rhs = 0.9 + 0.3, 1.0
        refined = rhs - math.log2(0.8)
        assert abs(report.lhs - lhs) <= 1e-12
        assert abs(report.rhs_original - rhs) <= 1e-12
        assert abs(report.rhs_refined - refined) <= 1e-12
        assert abs(report.slack_original - (lhs - rhs)) <= 1e-12
        assert abs(report.slack_refined - (lhs - refined)) <= 1e-12

    def test_keeps_the_sign_of_a_zero_bound(self):
        # -log2 1 is -0.0, and the canonical JSON writes it so
        report = self._base("tripartite_refined", c=1.0)
        assert math.copysign(1.0, report.to_dict()["rhs_original"]) == -1.0
        assert '"rhs_original": -0.0' in canonical_json(report.to_dict())

    def test_table_and_dict(self):
        report = self._base()
        assert "slack (refined)" in report.table()
        d = report.to_dict()
        assert d["relation_id"] == "bipartite_refined"
        assert d["H_XB"] == 1.0
        assert d["entropy_tolerance"] == 1e-9 and d["fidelity_tolerance"] == 1e-6


class TestFuzz:
    def test_deterministic_replay_bit_for_bit(self):
        a = fuzz("bipartite_refined", 3, 2, 123)
        b = fuzz("bipartite_refined", 3, 2, 123)
        assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())

    def test_single_trial(self):
        s = fuzz("bipartite_refined", 1, 2, 9)
        assert s.trials == 1 and s.worst_trial == 0

    def test_worst_instance_is_replayable(self):
        s = fuzz("bipartite_refined", 5, 2, 31)
        rho, xp, zp = scenario_from_dict(s.worst_instance)
        replay = check_bipartite(rho, xp, zp)
        assert abs(replay.slack_refined - s.min_slack) < 1e-12

    def test_random_pvm_mode_dim3(self):
        s = fuzz("bipartite_refined", 3, 3, 17)
        assert s.pvm_mode == "random"
        assert s.min_slack >= -1e-6

    def test_tripartite_relation(self):
        s = fuzz("tripartite_refined", 3, 2, 5)
        assert s.min_slack >= -1e-6
        assert s.max_refinement_gap <= 1e-9

    def test_original_relation_tracks_original_slack(self):
        s_ref = fuzz("bipartite_refined", 4, 2, 77)
        s_orig = fuzz("bipartite", 4, 2, 77)
        assert s_orig.min_slack >= s_ref.min_slack - 1e-12

    @pytest.mark.parametrize("d, trials, seed", [(2, 60, 601), (3, 20, 602)])
    def test_tripartite_fuzz_matches_checks_on_the_purified_instances(self, d, trials, seed):
        # oracle: the same seeded instances through the public check on the
        # explicit purification
        slacks, gaps = [], []
        for trial in range(trials):
            rho = random_multipartite_state((d, d), d * d, [seed, trial, 0], ("A", "B"))
            xp, zp = ((X, Z) if d == 2 else
                      (random_pvm(d, [seed, trial, 1]), random_pvm(d, [seed, trial, 2])))
            report = check_tripartite(purify(rho, "E"), xp, zp)
            slacks.append(report.slack_refined)
            gaps.append(report.slack_refined - report.slack_original)
        s = fuzz("tripartite_refined", trials, d, seed)
        assert s.worst_trial == int(np.argmin(slacks))
        assert abs(s.min_slack - min(slacks)) <= 1e-12
        assert abs(s.max_refinement_gap - max(gaps)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_tripartite_fuzz_trial_builds_no_purification(self, d, monkeypatch):
        # the trial feeds the kernel the purified AE marginal as an array:
        # no purify call and no state larger than rho_AB
        purified, built = [], []
        purify_fn, post_init = states.purify, DensityOperator.__post_init__

        def counting_purify(*args, **kwargs):
            purified.append(1)
            return purify_fn(*args, **kwargs)

        def counting_post_init(self):
            post_init(self)
            built.append(self.dim)

        for mod in (states, relations):
            monkeypatch.setattr(mod, "purify", counting_purify, raising=False)
        monkeypatch.setattr(DensityOperator, "__post_init__", counting_post_init)
        fuzz("tripartite_refined", 1, d, 603)
        assert purified == []
        assert built and max(built) <= d * d

    def test_a_fuzz_run_validates_the_worst_state_alone(self, monkeypatch):
        # each trial's draw is a density matrix by construction: the one
        # state validated is the worst instance's, after the last trial
        built = []
        post_init = DensityOperator.__post_init__

        def counting_post_init(self):
            post_init(self)
            built.append(self)

        monkeypatch.setattr(DensityOperator, "__post_init__", counting_post_init)
        summary = fuzz("tripartite_refined", 6, 3, 0)
        assert summary.worst_trial == 5 and len(built) == 1 and built[0].dims == (3, 3)
        assert np.array_equal(built[0].matrix, states._random_density_matrix(9, 9, [0, 5, 0]))

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_fuzz_run_serializes_the_worst_instance_once(self, monkeypatch, d):
        # trial 0 and the later worst trial were each a new worst, yet the
        # instance is serialized once, after the last trial, into the dict
        # of the validated state and PVMs of the worst trial
        calls = []
        monkeypatch.setattr(relations, "scenario_to_dict",
                            lambda *a: calls.append(a) or scenario_to_dict(*a))
        summary = fuzz("bipartite_refined", 6, d, 0)
        trial = summary.worst_trial
        assert trial > 0 and len(calls) == 1
        rho = random_multipartite_state((d, d), d * d, [0, trial, 0], ("A", "B"))
        if d == 2:
            x_pvm, z_pvm = pauli_pvm("X"), pauli_pvm("Z")
        else:
            x_pvm, z_pvm = random_pvm(d, [0, trial, 1]), random_pvm(d, [0, trial, 2])
        want = scenario_to_dict(rho, x_pvm, z_pvm)
        assert canonical_json(summary.worst_instance) == canonical_json(want)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3)])
    def test_the_fuzz_draw_is_the_validated_random_state(self, dims):
        # the unchecked kernel gives the matrix of the validating wrapper,
        # bit for bit, and that matrix passes the validating constructor
        dim = math.prod(dims)
        for seed in range(25):
            matrix = states._random_density_matrix(dim, dim, [seed, 3, 0])
            rho = random_multipartite_state(dims, dim, [seed, 3, 0], ("A", "B"))
            assert np.array_equal(matrix, rho.matrix)
            assert np.array_equal(DensityOperator(matrix, dims, ("A", "B")).matrix, matrix)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fuzz("bipartite_refined", 0, 2, 1)
        with pytest.raises(ValueError):
            fuzz("sideways", 1, 2, 1)

    @pytest.mark.parametrize("trials, dims, seed, name", [
        (True, 2, 1, "trials"),      # would run and report trials: True
        (1.0, 2, 1, "trials"),
        (-3, 2, 1, "trials"),
        ("5", 2, 1, "trials"),
        (1, 2.5, 1, "dims"),         # would run at 2x2
        (1, (2, 2.7), 1, "dims"),
        (1, 0, 1, "dims"),
        (1, (2, 0), 1, "dims"),
        (1, (2, 2, 2), 1, "dims"),
        (1, (True, 2), 1, "dims"),   # would run at 1x2
        (1, (2, np.True_), 1, "dims"),
        (1, True, 1, "dims"),
        (1, 2, -5, "seed"),          # would fail inside numpy
        (1, 2, 1.5, "seed"),
        (1, 2, True, "seed"),
    ])
    def test_arguments_are_checked_before_any_trial(self, monkeypatch, trials, dims, seed,
                                                    name):
        monkeypatch.setattr(relations, "_random_density_matrix",
                            lambda *a: pytest.fail("a trial ran"))
        with pytest.raises(ValueError, match=f"^{name} must be"):
            fuzz("bipartite_refined", trials, dims, seed)

    def test_integer_valued_arguments_of_any_type_give_the_same_summary(self):
        want = canonical_json(fuzz("bipartite_refined", 2, (2, 3), 4).to_dict())
        for trials, dims, seed in ((np.int64(2), (np.int32(2), 3.0), np.uint8(4)),
                                   (2, (2.0, 3), np.int64(4))):
            got = fuzz("bipartite_refined", trials, dims, seed)
            assert canonical_json(got.to_dict()) == want
            assert type(got.trials) is int and type(got.seed) is int
