import numpy as np
import pytest

from eurqsi.linalg import (
    EPS_SUPP,
    _check_psd,
    _on_support,
    apply_local,
    fidelity,
    herm_eig,
    op_norm,
    partial_trace,
    tensor,
    trace_distance,
)
from eurqsi.states import KET_0, KET_1, KET_PLUS, bell_phi, ket_bra, random_state

from conftest import (
    embedded_operator_oracle,
    haar_unitary,
    loop_partial_trace,
    pinched_state_oracle,
    sqrtm_fidelity,
)


def test_tensor_identity():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_basis_bookkeeping():
    out = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_trace_multiplicative():
    for seed in range(10):
        rho = random_state(2, 2, seed).matrix
        sig = random_state(2, 2, seed + 100).matrix
        got = np.trace(tensor(rho, sig))
        want = np.trace(rho) * np.trace(sig)  # scalar oracle
        assert abs(got - want) < 1e-12


def test_partial_trace_product_state():
    rho = random_state(2, 2, 0).matrix
    sig = random_state(2, 2, 1).matrix
    out = partial_trace(tensor(rho, sig), [2, 2], [0])
    assert np.abs(out - np.trace(sig) * rho).max() < 1e-12


def test_partial_trace_bell_state():
    out = partial_trace(ket_bra(bell_phi()), [2, 2], [0])
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_against_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = g @ g.conj().T
        m /= np.trace(m).real
        for keep in ([0], [1], [2], [0, 2], [1, 2], [0, 1]):
            got = partial_trace(m, [2, 2, 2], keep)
            want = loop_partial_trace(m, [2, 2, 2], keep)
            assert np.abs(got - want).max() < 1e-12
        assert abs(np.trace(partial_trace(m, [2, 2, 2], [1])) - 1.0) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), [2, 2], [0])


NAN_STATE = np.eye(4) / 4
NAN_STATE[1, 2] = np.nan


@pytest.mark.parametrize("m, dims, keep, message", [
    (np.eye(4) / 4, [4, 0], [0], "positive"),
    (np.eye(4) / 4, [-2, -2], [0], "positive"),      # the product alone would pass
    (np.eye(4) / 4, [2, 2], [2], "out of range"),
    (np.eye(4) / 4, [2, 2], [-1], "out of range"),
    (np.ones((4, 2)), [2, 2], [0], "square"),
    (NAN_STATE, [2, 2], [0], "non-finite"),
], ids=["zero dim", "negative dims", "keep past end", "negative keep", "non-square", "nan"])
def test_partial_trace_rejects(m, dims, keep, message):
    with pytest.raises(ValueError, match=message):
        partial_trace(m, dims, keep)


@pytest.mark.parametrize("dims, message", [
    ((2, 3), "product of dims"),
    ((3, 3), "product of dims"),
    ((2, 2, 0), "positive"),
    ((-2, -4), "positive"),
])
def test_apply_local_rejects_dims_that_do_not_fit(dims, message):
    with pytest.raises(ValueError, match=message):
        apply_local(np.eye(8) / 8, dims, [np.eye(2)], [0])


def _random_matrix(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def test_apply_local_against_dense_embedding_oracle():
    rng = np.random.default_rng(11)
    for dims in ((2, 3, 2), (3, 2), (2, 2, 2)):
        d = int(np.prod(dims))
        m = _random_matrix(rng, d, d)
        for positions in ([1], [2, 0], [0, 2], [1, 0]):
            if max(positions) >= len(dims):
                continue
            d_local = int(np.prod([dims[p] for p in positions]))
            kraus = [_random_matrix(rng, d_local, d_local) for _ in range(3)]
            got = apply_local(m, dims, kraus, positions)
            want = 0
            for k in kraus:
                full = embedded_operator_oracle(k, positions, dims)
                want = want + full @ m @ full.conj().T
            assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_apply_local_bra_contracts_the_subsystem():
    # (<z| (x) I) rho (|z> (x) I) from a 1 x d Kraus operator on position 0
    for seed, (d_a, d_b) in enumerate(((2, 2), (3, 2), (2, 6))):
        rho = random_state(d_a * d_b, d_a * d_b, seed).matrix
        zvecs = list(np.linalg.qr(_random_matrix(np.random.default_rng(seed), d_a, d_a))[0].T)
        got = sum(
            np.kron(ket_bra(z), apply_local(rho, (d_a, d_b), [z.conj()[None, :]], [0]))
            for z in zvecs
        )
        assert np.abs(got - pinched_state_oracle(rho, zvecs)).max() < 1e-12


def test_apply_local_non_square_keeps_subsystem_places():
    # a 4 x 3 operator on the middle subsystem of (2, 3, 2) gives (2, 4, 2)
    rng = np.random.default_rng(5)
    m = _random_matrix(rng, 12, 12)
    k = _random_matrix(rng, 4, 3)
    got = apply_local(m, (2, 3, 2), [k], [1])
    want = np.kron(np.kron(np.eye(2), k), np.eye(2))
    assert got.shape == (16, 16)
    assert np.abs(got - want @ m @ want.conj().T).max() < 1e-12 * np.abs(got).max()


def test_apply_local_rejects_bad_positions_and_kraus():
    m = np.eye(8) / 8
    with pytest.raises(ValueError):
        apply_local(m, (2, 2, 2), [np.eye(4)], [1, 1])
    with pytest.raises(ValueError):
        apply_local(m, (2, 2, 2), [np.eye(2)], [3])
    with pytest.raises(ValueError):
        apply_local(m, (2, 2, 2), [np.eye(2)], [0, 1])
    with pytest.raises(ValueError):
        apply_local(m, (2, 2, 2), [np.ones((1, 4))], [0, 1])
    with pytest.raises(ValueError):
        apply_local(m, (2, 2), [np.eye(2)], [0])


def test_support_cutoff_is_signed_and_relative():
    top = 4.0
    vals = np.array([top, 2 * EPS_SUPP * top, 0.5 * EPS_SUPP * top, 0.0, -5e-9])
    assert _on_support(vals).tolist() == [True, True, False, False, False]
    assert not _on_support(np.array([0.0, -1e-12])).any()


@pytest.mark.parametrize("top", [0.5, 10.0])
def test_negativity_guard_scales_with_max_one_top(top):
    scale = max(1.0, top)
    _check_psd(np.array([top, -0.5e-8 * scale]))
    with pytest.raises(ValueError, match="negative eigenvalues beyond tolerance"):
        _check_psd(np.array([top, -2e-8 * scale]))


def test_fidelity_identity_and_orthogonal():
    rho = random_state(3, 2, 5).matrix
    assert abs(fidelity(rho, rho) - 1.0) < 1e-10
    assert fidelity(ket_bra(KET_0), ket_bra(KET_1)) == 0.0


def test_fidelity_symmetric_and_pure_overlap():
    rng = np.random.default_rng(3)
    for _ in range(10):
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        phi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        phi /= np.linalg.norm(phi)
        f1 = fidelity(ket_bra(psi), ket_bra(phi))
        f2 = fidelity(ket_bra(phi), ket_bra(psi))
        want = abs(np.vdot(psi, phi)) ** 2
        assert abs(f1 - f2) < 1e-10
        assert abs(f1 - want) < 1e-10


def test_fidelity_against_sqrtm_oracle():
    # the oracle itself carries ~sqrt(eps) noise on rank-deficient inputs
    for seed in range(8):
        rho = random_state(3, 3, seed).matrix
        sig = random_state(3, 2, seed + 50).matrix
        assert abs(fidelity(rho, sig) - sqrtm_fidelity(rho, sig)) < 5e-8


def _near_pure(d, eps, seed):
    """(1 - eps) |psi><psi| + eps * (a full-rank state), psi Haar-random."""
    psi = haar_unitary(d, [seed, 0])[:, 0]
    m = (1.0 - eps) * np.outer(psi, psi.conj()) + eps * random_state(d, d, [seed, 1]).matrix
    return 0.5 * (m + m.conj().T)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fidelity_on_near_pure_states_keeps_small_eigenvalues():
    # sqrt(rho) sigma sqrt(rho) of two near-pure states has genuine
    # eigenvalues near EPS_SUPP times its top; each carries about
    # 2 sqrt(l top) of F, so cutting them at EPS_SUPP biased F low by up to
    # ~5e-7 here.  sqrtm's own accuracy on these inputs is ~2.5e-8.
    worst = 0.0
    for seed in range(60):
        d = (4, 9)[seed % 2]
        eps = 10.0 ** np.random.default_rng([seed, 9]).uniform(-12, -6, size=2)
        rho, sig = _near_pure(d, eps[0], [seed, 2]), _near_pure(d, eps[1], [seed, 3])
        worst = max(worst, abs(fidelity(rho, sig) - sqrtm_fidelity(rho, sig)))
    assert worst < 1e-7


@pytest.mark.parametrize("rho, sigma", [
    (np.diag([1.5, -0.5]), np.diag([1.0, 0.0])),
    (np.eye(2) / 2, np.diag([1.2, -0.2])),
])
def test_fidelity_rejects_a_negative_eigenvalue(rho, sigma):
    with pytest.raises(ValueError, match="negative eigenvalues beyond tolerance"):
        fidelity(rho, sigma)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(np.eye(2) / 2, np.eye(3) / 3)


def test_op_norm_cases():
    assert abs(op_norm(np.eye(2)) - 1.0) < 1e-14
    # 2x2 SVD oracle: |+><+| |0><0| = (1/sqrt 2)|+><0|, singular value 1/sqrt 2
    prod = ket_bra(KET_PLUS) @ ket_bra(KET_0)
    assert abs(op_norm(prod) - 1.0 / np.sqrt(2)) < 1e-12
    assert op_norm(np.zeros((2, 2))) == 0.0


def test_herm_eig_contract_many_random():
    rng = np.random.default_rng(11)
    for trial in range(1000):
        d = int(rng.integers(1, 17))
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = (g + g.conj().T) / 2
        lam, v = herm_eig(m)
        assert np.all(np.diff(lam) <= 1e-12)
        scale = max(op_norm(m), 1e-300)
        assert op_norm(v @ np.diag(lam) @ v.conj().T - m) <= 1e-10 * max(scale, 1.0)
        assert np.abs(v.conj().T @ v - np.eye(d)).max() <= 1e-10


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_distance():
    assert abs(trace_distance(ket_bra(KET_0), ket_bra(KET_1)) - 1.0) < 1e-12
    rho = random_state(2, 2, 9).matrix
    assert trace_distance(rho, rho) < 1e-14
