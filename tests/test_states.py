import copy
import dataclasses
import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eurqsi import gallery
from eurqsi.linalg import dagger, herm_eig, op_norm, partial_trace, tensor
from eurqsi.recovery import measurement_channel
from eurqsi.serialize import (
    canonical_json,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from eurqsi.relations import check_tripartite
from eurqsi.simulate import run_experiment
from eurqsi.states import (
    DensityOperator,
    InvalidStateError,
    KET_0,
    KET_1,
    KET_PLUS,
    PVM_TOL,
    Pvm,
    _compressed,
    _measured,
    bell_phi,
    incompatibility_c,
    ket_bra,
    maximally_mixed,
    measure,
    pauli_pvm,
    pinch,
    purify,
    random_multipartite_state,
    random_pure_state,
    random_pvm,
    random_state,
    theta_state,
)

from conftest import (
    fourier_pvm,
    haar_unitary,
    incompatibility_loop_oracle,
    measured_state_oracle,
    pvm_entrywise_defect,
    rank2_plus_rank1_pvm,
    rotated_spectrum,
    support_projector,
    theta_state_oracle,
)


def plus_pi_state():
    return DensityOperator(
        tensor(ket_bra(KET_PLUS), maximally_mixed(2)), (2, 2), ("A", "B")
    )


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidStateError):
            DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]), (2,), ("A",))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidStateError):
            DensityOperator(np.eye(2), (2,), ("A",))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidStateError):
            DensityOperator(np.diag([1.5, -0.5]), (2,), ("A",))

    def test_accepts_eigenvalue_inside_the_threshold(self):
        DensityOperator(rotated_spectrum([0.6 + 0.5e-8, 0.4, -0.5e-8], 321), (3,), ("A",))

    def test_rejects_eigenvalue_beyond_the_threshold_exactly(self):
        m = rotated_spectrum([0.6 + 2e-8, 0.4, -2e-8], 322)
        with pytest.raises(InvalidStateError, match="has eigenvalue") as err:
            DensityOperator(m, (3,), ("A",))
        named = float(re.search(r"eigenvalue (\S+)$", str(err.value)).group(1))
        assert named == float(np.linalg.eigvalsh(m).min())
        assert abs(named + 2e-8) < 1e-15

    @pytest.mark.parametrize("vals", [
        [0.5, 0.5, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.7 - 1e-12, 0.3, 1e-12, 0.0],
        [0.7 + 1e-12, 0.3, -1e-12, 0.0],
    ])
    def test_accepts_zero_and_tiny_eigenvalues(self, vals):
        DensityOperator(np.diag(vals), (2, 2), ("A", "B"))
        DensityOperator(rotated_spectrum(vals, 323), (2, 2), ("A", "B"))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(InvalidStateError):
            DensityOperator(np.eye(4) / 4, (2, 2), ("A", "A"))

    @pytest.mark.parametrize("dims", [(-2, -2), (-1, -4), (0, 4)])
    def test_rejects_non_positive_dims_whose_product_fits(self, dims):
        with pytest.raises(InvalidStateError, match="must be positive"):
            DensityOperator(np.eye(4) / 4, dims, ("A", "B"))
        with pytest.raises(InvalidStateError, match="must be positive"):
            DensityOperator.from_vector(np.ones(4), dims, ("A", "B"))

    @pytest.mark.parametrize("dims", [(2.5, 2.2), (2, 2.5), (4.9, 1), ("2", "2")])
    def test_rejects_dims_that_are_not_integers(self, dims):
        # int() alone would truncate (2.5, 2.2) to (2, 2), whose product fits
        with pytest.raises(InvalidStateError, match="must be integers"):
            DensityOperator(np.eye(4) / 4, dims, ("A", "B"))
        with pytest.raises(InvalidStateError, match="must be integers"):
            DensityOperator.from_vector(np.ones(4), dims, ("A", "B"))

    @pytest.mark.parametrize("dims", [(True, 2), (2, np.True_), (np.False_, 2)])
    def test_rejects_bools_as_dims(self, dims):
        # True == 1, so a test of integer value alone builds dims (1, 2)
        with pytest.raises(InvalidStateError, match="must be integers"):
            DensityOperator(np.eye(2) / 2, dims, ("A", "B"))
        with pytest.raises(InvalidStateError, match="must be integers"):
            DensityOperator.from_vector(np.ones(2), dims, ("A", "B"))
        with pytest.raises(InvalidStateError, match="must be integers"):
            random_multipartite_state(dims, 2, 1, ("A", "B"))

    def test_integer_valued_dims_of_any_type_are_accepted(self):
        for dims in ((np.int64(2), np.int32(2)), (2.0, 2.0)):
            assert DensityOperator(np.eye(4) / 4, dims, ("A", "B")).dims == (2, 2)
            assert DensityOperator.from_vector(np.ones(4), dims, ("A", "B")).dims == (2, 2)

    @pytest.mark.parametrize("dims", [(2.5, 2), (2, 2.7), ("2", "2")])
    def test_random_states_reject_dims_that_are_not_integers(self, dims):
        # int() would build (2.5, 2) as a 2x2 state
        with pytest.raises(InvalidStateError, match="must be integers"):
            random_multipartite_state(dims, 4, 1, ("A", "B"))
        with pytest.raises(InvalidStateError, match="must be integers"):
            random_pure_state(dims, 1, ("A", "B"))

    def test_random_states_accept_integer_valued_dims_of_any_type(self):
        for dims in ((np.int64(2), np.int32(3)), (2.0, 3.0)):
            want = random_multipartite_state((2, 3), 4, 1, ("A", "B"))
            got = random_multipartite_state(dims, 4, 1, ("A", "B"))
            assert got.dims == (2, 3) and np.array_equal(got.matrix, want.matrix)
            want = random_pure_state((2, 3), 1, ("A", "B"))
            got = random_pure_state(dims, 1, ("A", "B"))
            assert got.dims == (2, 3) and np.array_equal(got.matrix, want.matrix)

    @pytest.mark.parametrize("build, args, name", [
        (random_pvm, (2.5, 0), "dim"),
        (random_pvm, (True, 0), "dim"),
        (random_pvm, (0, 0), "dim"),
        (random_state, (2.0, 1, 0), "dim"),
        (random_state, (0, 1, 0), "dim"),
        (random_state, (2, True, 0), "rank"),
        (random_state, (2, 2.0, 0), "rank"),
        (random_state, (2, 3, 0), "rank"),
        (random_multipartite_state, ((2, 2), 0, 0, ("A", "B")), "rank"),
    ], ids=lambda v: getattr(v, "__name__", repr(v)))
    def test_random_builders_check_their_arguments_before_drawing(self, monkeypatch, build,
                                                                  args, name):
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
        with pytest.raises(ValueError, match=f"^{name} must be"):
            build(*args)

    def test_reduce_keeps_order(self):
        rho = random_multipartite_state((2, 3, 2), 6, 4, ("A", "B", "E"))
        red = rho.reduce(["E", "A"])
        assert red.labels == ("A", "E")
        assert red.dims == (2, 2)
        want = partial_trace(rho.matrix, (2, 3, 2), [0, 2])
        assert np.abs(red.matrix - want).max() < 1e-12

    def test_reduce_rejects_a_repeated_label(self):
        rho = random_multipartite_state((2, 3), 6, 4, ("A", "B"))
        with pytest.raises(InvalidStateError, match="repeats a subsystem"):
            rho.reduce(["A", "A"])

    def test_permute_matches_kron_structure(self):
        a = random_state(2, 2, 1).matrix
        b = random_state(3, 3, 2).matrix
        rho = DensityOperator(tensor(a, b), (2, 3), ("A", "B"))
        swapped = rho.permute(["B", "A"])
        assert swapped.labels == ("B", "A")
        assert np.abs(swapped.matrix - tensor(b, a)).max() < 1e-12
        assert np.abs(swapped.permute(["A", "B"]).matrix - rho.matrix).max() < 1e-12
        with pytest.raises(InvalidStateError):
            rho.permute(["A", "A"])


class TestKeptVector:
    """A pure state made from its vector keeps the unit vector, and keeps it
    through a reordering; a state made from a matrix, or reduced, has none."""

    def test_from_vector_keeps_the_unit_vector(self):
        psi = np.arange(1.0, 7.0) * (1.0 - 0.5j)
        s = DensityOperator.from_vector(psi, (2, 3), ("A", "B"))
        assert s._vector.shape == (6,)
        assert abs(np.linalg.norm(s._vector) - 1.0) <= 1e-15
        assert np.abs(s._vector - psi / np.linalg.norm(psi)).max() <= 1e-15
        assert np.array_equal(s.matrix, ket_bra(s._vector))

    def test_purify_keeps_the_purifying_vector(self):
        rho = random_multipartite_state((2, 3), 3, 416, ("A", "B"))
        pure = purify(rho, "E")
        assert pure._vector is not None
        assert np.array_equal(pure.matrix, ket_bra(pure._vector))

    def test_permute_carries_the_transposed_vector(self):
        pure = random_pure_state((2, 3, 4), 417, ("A", "B", "E"))
        order = ["E", "A", "B"]
        moved = pure.permute(order)
        assert (moved.dims, moved.labels) == ((4, 2, 3), ("E", "A", "B"))
        want = pure._vector.reshape(2, 3, 4).transpose(2, 0, 1).reshape(-1)
        assert np.array_equal(moved._vector, want)
        # the outer product of the transposed vector is the reordered matrix, bit for bit
        as_matrix = DensityOperator(pure.matrix, pure.dims, pure.labels).permute(order)
        assert as_matrix._vector is None
        assert np.array_equal(moved.matrix, as_matrix.matrix)
        assert np.array_equal(moved.permute(["A", "B", "E"])._vector, pure._vector)

    def test_matrix_and_reduced_states_have_no_vector(self):
        pure = random_pure_state((2, 3), 418, ("A", "B"))
        assert DensityOperator(pure.matrix, pure.dims, pure.labels)._vector is None
        assert pure.reduce(["A"])._vector is None
        assert random_multipartite_state((2, 3), 1, 418, ("A", "B"))._vector is None

    def test_the_vector_is_no_argument_and_no_part_of_repr_or_equality(self):
        field = {f.name: f for f in dataclasses.fields(DensityOperator)}["_vector"]
        assert not (field.init or field.repr)
        # a state equals only itself, so no field, the vector included, is compared
        assert DensityOperator.__eq__ is object.__eq__


@st.composite
def state_vectors(draw):
    """A vector of length 1-81 on a one- or two-subsystem layout: real or
    complex Gaussian entries, or one nonzero entry, scaled by 10**e for e
    in [-150, 150]; with the unit vector it stands for."""
    n = draw(st.integers(1, 81))
    d = draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["real", "complex", "one entry"]))
    if kind == "one entry":
        unit = np.zeros(n, dtype=complex)
        unit[rng.integers(n)] = rng.choice([1.0, -1.0, 1j, -1j])
    else:
        unit = rng.normal(size=n) + (1j * rng.normal(size=n) if kind == "complex" else 0.0)
        unit = unit / np.linalg.norm(unit)
    scale = 10.0 ** draw(st.integers(-150, 150))
    return unit * scale, (d, n // d), unit


class TestFromVector:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(state_vectors())
    def test_every_state_passes_the_matrix_validator(self, case):
        psi, dims, unit = case
        s = DensityOperator.from_vector(psi, dims, ("A", "B"))
        assert (s.dims, s.labels) == (dims, ("A", "B"))
        DensityOperator(s.matrix, s.dims, s.labels)
        assert np.abs(s.matrix - np.outer(unit, unit.conj())).max() <= 1e-14

    @pytest.mark.parametrize("entry", [1e200, 1e308, 1e-200, 5e-324, 1e308 + 1e308j])
    def test_a_norm_out_of_range_is_normalized(self, entry):
        # ||psi||^2 over- or underflows as a double; the direction does not
        s = DensityOperator.from_vector([entry, entry, 0.0, -entry], (2, 2), ("A", "B"))
        unit = np.array([1.0, 1.0, 0.0, -1.0]) / np.sqrt(3.0)
        assert np.abs(s.matrix - np.outer(unit, unit)).max() <= 1e-15
        DensityOperator(s.matrix, s.dims, s.labels)

    @pytest.mark.parametrize("psi, dims, labels, message", [
        (np.zeros(4), (2, 2), ("A", "B"), "is zero"),
        ([1.0, np.nan, 0.0, 0.0], (2, 2), ("A", "B"), "non-finite"),
        ([1.0, 0.0, np.inf, 0.0], (2, 2), ("A", "B"), "non-finite"),
        ([1.0, 0.0, 0.0, complex(0.0, -np.inf)], (2, 2), ("A", "B"), "non-finite"),
        (np.ones(6), (2, 2), ("A", "B"), "does not match dims"),
        (np.ones(4), (2, 2), ("A", "A"), "duplicate subsystem labels"),
        (np.ones(4), (2, 2), ("A",), "length mismatch"),
    ])
    def test_rejects_what_is_not_a_state(self, psi, dims, labels, message):
        with pytest.raises(InvalidStateError, match=message):
            DensityOperator.from_vector(psi, dims, labels)


class TestPvm:
    def test_rejects_non_idempotent(self):
        with pytest.raises(InvalidStateError):
            Pvm((np.diag([0.9, 0.0]), np.diag([0.1, 1.0])))

    def test_rejects_incomplete(self):
        with pytest.raises(InvalidStateError):
            Pvm((np.diag([1.0, 0.0]),))

    @pytest.mark.parametrize("build, message", [
        (lambda: Pvm(()), "at least one projector"),
        (lambda: Pvm((np.eye(2), np.eye(3))), "differ in dimension"),
        (lambda: Pvm.from_basis([KET_0, np.ones(3)]), "kets of one dimension"),
        (lambda: Pvm.from_basis([]), "kets of one dimension"),
        (lambda: pauli_pvm("W"), "unknown Pauli axis 'W'"),
    ], ids=["no projectors", "mixed dimensions", "mixed ket lengths", "no kets",
            "unknown axis"])
    def test_rejects_what_is_no_pvm(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_rank_one_detection(self):
        assert pauli_pvm("X").is_rank_one()
        rank2 = Pvm((np.diag([1, 1, 0, 0]).astype(complex),
                     np.diag([0, 0, 1, 1]).astype(complex)))
        assert not rank2.is_rank_one()

    # from_basis keeps its kets; a PVM built from projectors finds a basis
    # when it is made
    PVMS = {
        "pauli X": pauli_pvm("X"),
        "haar 3": random_pvm(3, 5),
        "fourier 4": fourier_pvm(4),
        "projectors of haar 3": Pvm(random_pvm(3, 5).projectors),
        "rank 2+1": rank2_plus_rank1_pvm(6),
        "rank 2+2": Pvm((np.diag([1, 1, 0, 0]).astype(complex),
                         np.diag([0, 0, 1, 1]).astype(complex))),
    }

    def test_from_basis_kraus_rows_are_the_given_kets(self):
        kets = haar_unitary(3, 7).T
        want = np.zeros((3, 3, 3), dtype=complex)
        want[np.arange(3), np.arange(3)] = kets.conj()
        assert np.array_equal(Pvm.from_basis(kets).kraus, want)
        assert np.array_equal(Pvm.from_basis(list(kets)).kraus, want)

    @pytest.mark.parametrize("name", sorted(PVMS))
    def test_kraus_is_complete(self, name):
        pvm = self.PVMS[name]
        k = pvm.kraus
        assert k.shape == (pvm.dim, len(pvm), pvm.dim)
        assert np.abs(np.einsum("kxi,kxj->ij", k.conj(), k) - np.eye(pvm.dim)).max() < 1e-12

    @pytest.mark.parametrize("name", sorted(PVMS))
    def test_kraus_rows_of_each_outcome_span_its_projector(self, name):
        pvm = self.PVMS[name]
        # each operator |x><v| has one nonzero row, the row of its outcome
        assert np.array_equal(np.count_nonzero(np.abs(pvm.kraus).max(axis=2), axis=1),
                              np.ones(pvm.dim))
        for x, p in enumerate(pvm.projectors):
            rows = pvm.kraus[:, x]
            assert np.abs(rows.conj().T @ rows - p).max() < 1e-12


# Each way a family can fail to be a PVM, missed by 2 * PVM_TOL
_TWICE = 2 * PVM_TOL
_E01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_TILTED = np.array([np.sin(_TWICE), np.cos(_TWICE)], dtype=complex)
NEAR_MISS_PROJECTORS = {
    # the pairs sum to I exactly
    "non-hermitian": (np.diag([1.0, 0.0]) + _TWICE * _E01, np.diag([0.0, 1.0]) - _TWICE * _E01),
    "non-idempotent": (np.diag([1.0 + _TWICE, 0.0]), np.diag([-_TWICE, 1.0])),
    "non-orthogonal": (np.diag([1.0, 0.0]), ket_bra(_TILTED)),
    # each projector is idempotent within PVM_TOL, their sum is not I
    "not summing to identity": (np.diag([1.0, 0.0, PVM_TOL]), np.diag([0.0, 1.0, PVM_TOL]),
                                np.diag([0.0, 0.0, 1.0])),
}
NEAR_MISS_KETS = {
    "non-orthogonal": (np.array([1.0, 0.0]), _TILTED),
    "non-normalized": (np.array([1.0 + _TWICE, 0.0]), np.array([0.0, 1.0])),
    "too few": (np.eye(3)[0], np.eye(3)[1]),
    "too many": (np.eye(2)[0], np.eye(2)[1], _TILTED),
}


class TestPvmValidation:
    @pytest.mark.parametrize("name", sorted(NEAR_MISS_PROJECTORS))
    def test_projectors_missed_by_twice_the_tolerance_are_rejected(self, name):
        with pytest.raises(InvalidStateError):
            Pvm(tuple(np.asarray(p, dtype=complex) for p in NEAR_MISS_PROJECTORS[name]))

    @pytest.mark.parametrize("name", sorted(NEAR_MISS_KETS))
    def test_kets_missed_by_twice_the_tolerance_are_rejected(self, name):
        with pytest.raises(InvalidStateError):
            Pvm.from_basis(NEAR_MISS_KETS[name])

    def test_never_accepts_what_the_entrywise_tests_refuse(self):
        # families perturbed around PVM_TOL: whatever the one-step validation
        # accepts passes the entrywise loop tests at PVM_TOL
        rng = np.random.default_rng(416)
        accepted = 0
        for trial in range(300):
            d = 2 + trial % 3
            u = haar_unitary(d, [416, trial])
            scale = 10.0 ** rng.uniform(-11.5, -9.3)
            noise = rng.normal(size=(d, d, d)) + 1j * rng.normal(size=(d, d, d))
            if trial % 2:
                noise = noise + noise.conj().transpose(0, 2, 1)
            projs = tuple(np.outer(u[:, k], u[:, k].conj()) + scale * noise[k] / np.abs(noise[k]).max()
                          for k in range(d))
            kets = u.T + scale * noise[0]
            for build, family in ((lambda: Pvm(projs), projs),
                                  (lambda: Pvm.from_basis(kets), [ket_bra(v) for v in kets])):
                try:
                    build()
                except InvalidStateError:
                    continue
                accepted += 1
                assert pvm_entrywise_defect(family) <= PVM_TOL
        assert accepted > 100

    def test_round_off_far_below_the_tolerance_is_accepted(self):
        u = haar_unitary(3, 411)
        kets = u.T + 1e-13 * haar_unitary(3, 412)
        assert Pvm.from_basis(kets).is_rank_one()
        projs = tuple(p + 1e-13 * np.eye(3) for p in random_pvm(3, 413).projectors)
        assert Pvm(projs).ranks() == (1, 1, 1)

    @pytest.mark.parametrize("d", [2, 3])
    def test_from_basis_decomposes_nothing_and_projectors_take_one_stacked_eigh(
            self, d, monkeypatch):
        kets = haar_unitary(d, [414, d]).T
        rank2 = rank2_plus_rank1_pvm([414, d]).projectors
        calls = Counter()

        def counted(name, fn):
            def wrapper(a, *args, **kwargs):
                calls[name, np.shape(a)] += 1
                return fn(a, *args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        pvm = Pvm.from_basis(kets)
        assert pvm.is_rank_one() and pvm.kraus.shape == (d, d, d)
        assert np.array_equal(pvm._ranges[:, 0], kets.conj())
        assert calls == Counter()
        # every later use reads the basis found here
        for projs in (pvm.projectors, rank2):
            calls.clear()
            built = Pvm(projs)
            built.ranks(), built.kraus, built._ranges
            assert calls == Counter({("eigh", np.shape(projs)): 1})

    def test_from_basis_projectors_are_the_kets_outer_products(self):
        kets = haar_unitary(3, 415).T
        for p, v in zip(Pvm.from_basis(kets).projectors, kets):
            assert np.array_equal(p, ket_bra(v))

    @pytest.mark.parametrize("kind", ["from_basis", "rank 2", "zero projector"])
    def test_range_stack_is_set_at_construction(self, kind):
        # the range stack is the PVM's one copy of its basis: the ranks,
        # the rank-one test and the Kraus operators are read off it
        kets = haar_unitary(3, 420).T
        if kind == "from_basis":
            pvm, ranks = Pvm.from_basis(kets), (1, 1, 1)
        elif kind == "rank 2":
            pvm, ranks = rank2_plus_rank1_pvm(420), (2, 1)
        else:
            pvm, ranks = Pvm(random_pvm(3, 420).projectors + (np.zeros((3, 3)),)), (1, 1, 1, 0)
        assert "_ranges" in vars(pvm) and not hasattr(pvm, "_basis")
        if kind == "from_basis":  # the given kets, bit for bit
            assert np.array_equal(pvm._ranges[:, 0], kets.conj())
        else:
            assert np.allclose(pvm._ranges, _ranges_oracle(pvm), rtol=0.0, atol=1e-15)
        assert pvm.ranks() == ranks and all(type(r) is int for r in pvm.ranks())
        assert pvm.is_rank_one() == (kind == "from_basis")
        # one Kraus operator |x><v| per basis vector, outcomes ascending and
        # each outcome's vectors in slot order: the nonzero rows of the stack
        k = pvm.kraus
        op, outcomes = np.nonzero(np.any(k, axis=2))
        assert k.shape == (pvm.dim, len(pvm), pvm.dim) and np.array_equal(op, np.arange(pvm.dim))
        assert np.array_equal(outcomes, np.repeat(np.arange(len(pvm)), ranks))
        rows = [pvm._ranges[x, s] for x, r in enumerate(ranks) for s in range(r)]
        assert np.array_equal(k.sum(axis=1), np.array(rows))


def _ranges_oracle(pvm):
    """The range stack of a PVM made from its projectors, found projector
    by projector: block x holds the bras of the eigenvectors of P_x above
    1/2, the largest eigenvalue first, then zero rows up to the largest
    rank."""
    blocks = []
    for p in pvm.projectors:
        vals, vecs = np.linalg.eigh(p)
        blocks.append(vecs[:, ::-1][:, vals[::-1] > 0.5].conj().T)
    ranges = np.zeros((len(pvm), max(map(len, blocks)), pvm.dim), dtype=complex)
    for x, bras in enumerate(blocks):
        ranges[x, :len(bras)] = bras
    return ranges


class TestMeasure:
    def test_x_measurement_of_x_eigenstate(self):
        sigma = measure(plus_pi_state(), pauli_pvm("X"), "A", "X")
        assert sigma.dims == (2, 2) and sigma.labels == ("X", "B")
        want = tensor(ket_bra(KET_0), maximally_mixed(2))
        assert np.abs(sigma.matrix - want).max() < 1e-12

    def test_z_measurement_of_x_eigenstate(self):
        omega = measure(plus_pi_state(), pauli_pvm("Z"), "A", "Z")
        assert np.abs(omega.matrix - np.eye(4) / 4).max() < 1e-12

    def test_z_measurement_of_bell_state(self):
        rho = DensityOperator.from_vector(bell_phi(), (2, 2), ("A", "B"))
        omega = measure(rho, pauli_pvm("Z"), "A", "Z")
        want = (tensor(ket_bra(KET_0), ket_bra(KET_0))
                + tensor(ket_bra(KET_1), ket_bra(KET_1))) / 2
        assert np.abs(omega.matrix - want).max() < 1e-12

    def test_trace_preserving_and_psd_blocks(self):
        for trial in range(1000):
            d = 2 + trial % 3
            rho = random_state(d, d, [trial, 0])
            pvm = random_pvm(d, [trial, 1])
            sigma = measure(
                DensityOperator(rho.matrix, (d,), ("A",)), pvm, "A", "X"
            )
            assert abs(np.trace(sigma.matrix).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(sigma.matrix).min() > -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidStateError):
            measure(plus_pi_state(), fourier_pvm(3), "A", "X")


# The measured subsystem first, middle and last: Haar rank-one PVMs on
# (2, 3, 2) and the rank-2 + rank-1 qutrit PVM with the qutrit moved along.
ORACLE_CASES = [
    *[((2, 3, 2), pos, "haar") for pos in range(3)],
    *[(dims, dims.index(3), "rank 2 + rank 1") for dims in [(3, 2, 2), (2, 3, 2), (2, 2, 3)]],
]


def _oracle_case(dims, pos, kind, seed):
    labels = ("P", "Q", "R")
    rho = random_multipartite_state(dims, 6, seed, labels)
    d = dims[pos]
    x_pvm = random_pvm(d, [seed, 1]) if kind == "haar" else rank2_plus_rank1_pvm([seed, 1])
    return rho, labels[pos], x_pvm, random_pvm(d, [seed, 2])


class TestMeasureOracles:
    @pytest.mark.parametrize("dims, pos, kind", ORACLE_CASES)
    def test_measure_matches_block_formula(self, dims, pos, kind):
        rho, measured, x_pvm, _ = _oracle_case(dims, pos, kind, 341 + pos)
        sigma = measure(rho, x_pvm, measured, "X")
        assert sigma.labels == ("X",) + tuple(s for s in rho.labels if s != measured)
        want = measured_state_oracle(rho.matrix, dims, pos, x_pvm)
        assert np.abs(sigma.matrix - want).max() <= 1e-14

    @pytest.mark.parametrize("dims, pos, kind", ORACLE_CASES)
    def test_theta_state_matches_rank_one_formula(self, dims, pos, kind):
        rho, measured, x_pvm, z_pvm = _oracle_case(dims, pos, kind, 351 + pos)
        theta = theta_state(rho, x_pvm, z_pvm, measured, "X")
        assert theta.labels == ("X",) + tuple(s for s in rho.labels if s != measured)
        want = theta_state_oracle(rho.matrix, dims, pos, x_pvm, z_pvm)
        assert np.abs(theta.matrix - want).max() <= 1e-14


@st.composite
def kernel_cases(draw):
    """A random state of any rank on (2, 3, 2) or (3, 2, 2), the measured
    subsystem first, middle or last, and a Haar rank-one PVM or, on the
    qutrit, the rank-2 + rank-1 PVM."""
    dims = draw(st.sampled_from([(2, 3, 2), (3, 2, 2)]))
    pos = draw(st.integers(0, 2))
    rank = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rho = random_multipartite_state(dims, rank, [seed, 0], ("P", "Q", "R"))
    if dims[pos] == 3 and draw(st.booleans()):
        return rho, pos, rank2_plus_rank1_pvm([seed, 1])
    return rho, pos, random_pvm(dims[pos], [seed, 1])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(kernel_cases())
def test_block_stack_and_measure_match_the_oracle(case):
    rho, pos, pvm = case
    n, r = len(pvm), rho.dim // rho.dims[pos]
    want = measured_state_oracle(rho.matrix, rho.dims, pos, pvm)
    blocks = _measured(rho.matrix, rho.dims, pvm, pos)
    assert blocks.shape == (n, r, r)
    assert np.abs(blocks - np.einsum("xbxc->xbc", want.reshape(n, r, n, r))).max() <= 1e-14
    sigma = measure(rho, pvm, rho.labels[pos], "X")
    assert sigma.dims == (n,) + rho.dims[:pos] + rho.dims[pos + 1:]
    assert np.abs(sigma.matrix - want).max() <= 1e-14


class TestThetaState:
    def test_x_eigenstate_gives_uniform(self):
        th = theta_state(plus_pi_state(), pauli_pvm("X"), pauli_pvm("Z"))
        assert np.abs(th.matrix - np.eye(4) / 4).max() < 1e-12

    def test_max_entangled_gives_uniform(self):
        rho = DensityOperator.from_vector(bell_phi(), (2, 2), ("A", "B"))
        th = theta_state(rho, pauli_pvm("X"), pauli_pvm("Z"))
        assert np.abs(th.matrix - np.eye(4) / 4).max() < 1e-12

    def test_max_uncertainty_sigma_equals_theta(self):
        from eurqsi.states import KET_PLUS_Y
        rho = DensityOperator(
            tensor(ket_bra(KET_PLUS_Y), maximally_mixed(2)), (2, 2), ("A", "B")
        )
        sigma = measure(rho, pauli_pvm("X"), "A", "X")
        theta = theta_state(rho, pauli_pvm("X"), pauli_pvm("Z"))
        uniform = np.eye(4) / 4
        assert np.abs(sigma.matrix - uniform).max() < 1e-12
        assert np.abs(theta.matrix - uniform).max() < 1e-12

    def test_rejects_non_rank_one_z(self):
        rho = random_multipartite_state((4, 2), 8, 3, ("A", "B"))
        rank2 = Pvm((np.diag([1, 1, 0, 0]).astype(complex),
                     np.diag([0, 0, 1, 1]).astype(complex)))
        with pytest.raises(InvalidStateError):
            theta_state(rho, random_pvm(4, 0), rank2)


class TestIncompatibility:
    def test_pauli_pair(self):
        c = incompatibility_c(pauli_pvm("X"), pauli_pvm("Z"))
        assert abs(c - 0.5) < 1e-12

    def test_self_compatible(self):
        z = pauli_pvm("Z")
        assert abs(incompatibility_c(z, z) - 1.0) < 1e-12

    def test_fourier_dim3_enumeration(self):
        comp = Pvm.from_basis(np.eye(3))
        four = fourier_pvm(3)
        # oracle: all 9 pairwise squared norms are |<e_j|f_k>|^2 = 1/3
        for p in comp.projectors:
            for q in four.projectors:
                assert abs(op_norm(p @ q) ** 2 - 1 / 3) < 1e-12
        assert abs(incompatibility_c(comp, four) - 1 / 3) < 1e-12

    def test_operator_bound_q_p_q(self):
        # Q_z P_x Q_z <= c I for every pair, on random PVMs; for rank one,
        # ||P_x Q_z||^2 = Tr(P_x Q_z), here in extended precision
        for seed in range(50):
            d = 2 + seed % 3
            xp, zp = random_pvm(d, [seed, 0]), random_pvm(d, [seed, 1])
            c = incompatibility_c(xp, zp)
            want = max(np.trace(p.astype(np.clongdouble) @ q.astype(np.clongdouble)).real
                       for p in xp.projectors for q in zp.projectors)
            assert abs(c - want) < 5e-16
            for q in zp.projectors:
                for p in xp.projectors:
                    top = np.linalg.eigvalsh(q @ p @ q).max()
                    assert top <= c + 1e-10

    def test_rejects_pvms_of_different_dimensions(self):
        with pytest.raises(InvalidStateError, match="different dimensions"):
            incompatibility_c(pauli_pvm("X"), fourier_pvm(3))

    def test_rank_two_blocks_match_the_svd_loop(self):
        # both PVMs with a rank-2 projector: the padded blocks take an SVD
        for seed in range(20):
            xp, zp = rank2_plus_rank1_pvm([seed, 0]), rank2_plus_rank1_pvm([seed, 1])
            assert abs(incompatibility_c(xp, zp) - incompatibility_loop_oracle(xp, zp)) < 4e-15


class TestPurify:
    def test_pure_state_trivial_purifier(self):
        rho = DensityOperator(ket_bra(KET_PLUS), (2,), ("A",))
        out = purify(rho)
        assert out.dims == (2, 1)
        assert np.abs(out.reduce("A").matrix - rho.matrix).max() < 1e-10

    def test_maximally_mixed_gives_bell_type(self):
        rho = DensityOperator(maximally_mixed(2), (2,), ("A",))
        out = purify(rho)
        assert out.dims == (2, 2)
        assert out.is_pure()
        assert np.abs(out.reduce("A").matrix - maximally_mixed(2)).max() < 1e-10

    def test_random_rank2_qutrit_roundtrip(self):
        rho = random_state(3, 2, 12)
        out = purify(rho)
        assert out.dims == (3, 2)
        assert np.abs(out.reduce("A").matrix - rho.matrix).max() < 1e-10
        # the vector is sum_k sqrt(l_k) |v_k> (x) |k>
        vals, vecs = herm_eig(rho.matrix)
        psi = sum(np.sqrt(vals[k]) * np.kron(vecs[:, k], np.eye(2)[k]) for k in range(2))
        psi /= np.linalg.norm(psi)
        assert np.abs(out.matrix - np.outer(psi, psi.conj())).max() < 1e-15

    def test_rejects_a_purifier_label_in_use(self):
        with pytest.raises(InvalidStateError, match="label 'B' already in use"):
            purify(plus_pi_state(), "B")

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
    def test_round_off_negative_eigenvalue_is_dropped(self, dims):
        # DensityOperator accepts eigenvalues down to -1e-8; the purifier
        # must not take the square root of one
        d = int(np.prod(dims))
        vals = np.linspace(1.0, 2.0, d - 1)
        vals = list(vals / vals.sum() + 5e-9 / (d - 1)) + [-5e-9]
        rho = DensityOperator(rotated_spectrum(vals, 361 + d), dims, ("A", "B"))
        out = purify(rho, "E")
        assert out.dims == dims + (d - 1,)
        assert np.abs(out.reduce(["A", "B"]).matrix - rho.matrix).max() < 1e-8
        report = check_tripartite(out, random_pvm(dims[0], 362), random_pvm(dims[0], 363))
        assert report.slack_refined <= report.slack_original + 1e-9


class TestRandomEnsembles:
    def test_rank_one_is_pure(self):
        for seed in range(20):
            assert abs(random_state(2, 1, seed).purity() - 1.0) < 1e-10

    def test_pvm_sums_to_identity(self):
        pvm = random_pvm(4, 3)
        total = sum(pvm.projectors)
        assert np.abs(total - np.eye(4)).max() < 1e-10

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            random_state(2, 3, 0)
        with pytest.raises(ValueError):
            random_state(2, 0, 0)

    def test_deterministic_under_seed(self):
        a = random_state(3, 2, 42).matrix
        b = random_state(3, 2, 42).matrix
        assert np.array_equal(a, b)

    def test_mean_approaches_maximally_mixed(self):
        # Monte Carlo oracle: the ensemble is unitarily invariant, so the
        # mean must be the maximally mixed state.
        acc = np.zeros((2, 2), dtype=complex)
        n = 10_000
        for seed in range(n):
            acc += random_state(2, 2, [1234, seed]).matrix
        assert np.abs(acc / n - maximally_mixed(2)).max() < 0.02


class TestPinching:
    def test_support_containment(self):
        # supp(rho) is inside supp(sum_z Q_z rho Q_z) for rank-one Z
        for seed in range(50):
            d = 2 + seed % 2
            rho = random_state(d, d - (seed % 2), [seed, 5])
            zp = random_pvm(d, [seed, 6])
            pinched = pinch(rho, zp, "A")
            comp = np.eye(d) - support_projector(pinched.matrix)
            mass = float(np.trace(comp @ rho.matrix).real)
            assert mass < 1e-10


class TestScenarioFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        rho = plus_pi_state()
        path = tmp_path / "scenario.json"
        save_scenario(path, rho, pauli_pvm("X"), pauli_pvm("Z"))
        rho2, xp, zp = load_scenario(path)
        assert np.array_equal(rho.matrix, rho2.matrix)
        for p, q in zip(xp.projectors, pauli_pvm("X").projectors):
            assert np.array_equal(p, q)
        # a second save is byte-identical
        text1 = path.read_text()
        save_scenario(path, rho2, xp, zp)
        assert path.read_text() == text1

    def test_missing_key_rejected(self):
        with pytest.raises(InvalidStateError):
            scenario_from_dict({"dims": [2, 2]})

    def test_a_json_array_is_no_scenario(self, tmp_path):
        path = tmp_path / "array.json"
        path.write_text("[]")
        with pytest.raises(InvalidStateError, match="must contain a JSON object"):
            load_scenario(path)

    @pytest.mark.parametrize("dims, labels", [
        ((2,), ("A",)), ((2, 2), ("A", "B")), ((2, 1, 2), ("A", "B0", "B1")),
    ])
    def test_scenario_subsystems_are_a_then_b(self, dims, labels):
        rho = random_multipartite_state(dims, 1, 7, [f"S{i}" for i in range(len(dims))])
        got, xp, zp = scenario_from_dict(scenario_to_dict(rho, pauli_pvm("X"), pauli_pvm("Z")))
        assert (got.dims, got.labels) == (dims, labels)
        assert np.array_equal(got.matrix, rho.matrix)

    @pytest.mark.parametrize("d", [{1: 2.0}, {1: 2.0, "1": 3.0}])
    def test_canonical_json_rejects_a_key_that_is_no_str(self, d):
        with pytest.raises(TypeError, match="cannot serialize the key 1: keys must be str"):
            canonical_json(d)

    def test_canonical_json_formatting(self):
        d = {"b": 1 / 3, "a": [1, 2.5], "edge": float("inf")}
        s = canonical_json(d)
        assert s == canonical_json(d)
        assert "0.33333333333333331" in s  # 17 significant digits
        assert '"inf"' in s  # distinguished value, not an overflow
        assert json.loads(s)["b"] == 1 / 3  # bit-exact round trip


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(kernel_cases())
def test_compressed_blocks_rebuild_the_pinched_state(case):
    # sum_x (R_x^dag (x) I) B_x (R_x (x) I) = sum_x (P_x (x) I) rho (P_x (x) I),
    # and each B_x has the spectrum of its term
    rho, pos, pvm = case
    first = rho.permute([rho.labels[pos]] + [s for i, s in enumerate(rho.labels) if i != pos])
    blocks = _compressed(rho.matrix, rho.dims, [pvm], pos)
    rest = rho.dim // rho.dims[pos]
    lift = np.stack([np.kron(dagger(rx), np.eye(rest)) for rx in pvm._ranges])
    terms = [np.kron(p, np.eye(rest)) @ first.matrix @ np.kron(p, np.eye(rest))
             for p in pvm.projectors]
    assert np.abs((lift @ blocks @ lift.conj().transpose(0, 2, 1)).sum(axis=0)
                  - sum(terms)).max() <= 1e-14
    for b, term in zip(blocks, terms):
        want = np.sort(np.linalg.eigvalsh(term))[-len(b):]
        assert np.abs(np.sort(np.linalg.eigvalsh(b)) - want).max() <= 1e-14


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(kernel_cases())
def test_two_pvms_compressed_at_once_give_each_ones_blocks_and_zero_padding(case):
    # one stack for the case's PVM and another, in either order, the other
    # with a rank-2 projector on a qutrit: each PVM's blocks are the leading
    # corners on its own slots, equal to its compression alone, and every
    # padded slot holds exact zeros
    rho, pos, pvm = case
    d = rho.dims[pos]
    other = rank2_plus_rank1_pvm([d, 7]) if d == 3 else random_pvm(d, [d, 7])
    slots = max(pvm._ranges.shape[1], other._ranges.shape[1])
    rest = rho.dim // rho.dims[pos]
    for pair in ([pvm, other], [other, pvm]):
        stack = _compressed(rho.matrix, rho.dims, pair, pos)
        assert stack.shape == (len(pvm) + len(other), slots * rest, slots * rest)
        start = 0
        for p in pair:
            own = _compressed(rho.matrix, rho.dims, [p], pos)
            s = own.shape[1]
            blocks = stack[start:start + len(p)]
            assert np.abs(blocks[:, :s, :s] - own).max() <= 1e-15
            assert not blocks[:, s:].any() and not blocks[:, :, s:].any()
            start += len(p)


# the five value types that hold arrays, each with a function making a fresh instance
VALUE_TYPES = {
    "Pvm": lambda: pauli_pvm("X"),
    "DensityOperator": plus_pi_state,
    "CpMap": lambda: measurement_channel(pauli_pvm("X")),
    "ExperimentResult": lambda: run_experiment(1, shots=64, seed=0),
    "GalleryCase": lambda: gallery.build("x_eigen"),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_types_that_hold_arrays_compare_by_identity(name):
    # == on their fields would ask numpy for the truth value of an array
    x, y = VALUE_TYPES[name](), VALUE_TYPES[name]()
    assert type(x).__name__ == name
    assert x == x and x != copy.copy(x) and x != y
    assert x in [y, x] and x not in [y]
    assert {x, y} == {y, x} and len({x, x}) == 1
