import decimal
from itertools import permutations

import numpy as np
import pytest
import scipy.linalg

from eurqsi.linalg import (
    EPS_SUPP,
    _FIDELITY_GUARD,
    _check_psd,
    _fidelity,
    _in_order,
    _local_stack,
    _on_support,
    _sinhc,
    apply_local,
    as_matrix,
    fidelity,
    herm_eig,
    op_norm,
    partial_trace,
    support_eig,
    tensor,
    trace_distance,
)
from eurqsi.states import KET_0, KET_1, KET_PLUS, bell_phi, ket_bra, random_state

from conftest import (
    embedded_operator_oracle,
    haar_unitary,
    loop_partial_trace,
    permutation_matrix,
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


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 1, 2)])
def test_in_order_against_loop_partial_trace_and_a_permutation(dims):
    # every ordered choice of kept subsystems: the loop oracle traces out
    # the others, a permutation matrix puts the kept ones in order
    rng = np.random.default_rng(13)
    d = int(np.prod(dims))
    m = _random_matrix(rng, d, d)
    for size in (1, 2, 3):
        for order in permutations(range(3), size):
            keep = sorted(order)
            p = permutation_matrix([dims[i] for i in keep], [keep.index(i) for i in order])
            want = p @ loop_partial_trace(m, dims, keep) @ p.conj().T
            got, got_dims = _in_order(m, dims, list(order))
            assert got_dims == tuple(dims[i] for i in order)
            assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("dims, positions, d_out", [
    ((2, 3, 2), [1], None),
    ((2, 3, 2), [2, 0], None),      # reversed and not contiguous
    ((2, 3, 2), [0, 2], None),      # not contiguous
    ((2, 2, 2), [1, 0], None),      # reversed
    ((2, 3, 2), [0, 1, 2], None),   # no rest
    ((2, 3, 2), [1], 4),            # non-square, one position
    ((3, 2), [0], 1),               # a bra, one position
    ((2, 3, 2), [2, 0], 3),         # non-square, two positions
    ((2, 3, 2), [0, 1], 2),         # non-square, two positions, leading
])
def test_local_stack_against_dense_kronecker_oracle(dims, positions, d_out):
    # operator k of the stack is (K_k (x) I) P m P^dag (K_k^dag (x) I), with
    # P the permutation that puts ``positions`` first and the rest in order
    rng = np.random.default_rng(17)
    d = int(np.prod(dims))
    m = _random_matrix(rng, d, d)
    d_in = int(np.prod([dims[p] for p in positions]))
    ops = np.stack([_random_matrix(rng, d_out or d_in, d_in) for _ in range(3)])
    rest = [i for i in range(len(dims)) if i not in positions]
    p = permutation_matrix(dims, positions + rest)
    eye = np.eye(d // d_in)
    want = [np.kron(k, eye) @ p @ m @ p.conj().T @ np.kron(k, eye).conj().T for k in ops]
    got = _local_stack(m, dims, ops, positions)
    assert got.shape == (3,) + want[0].shape
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("call, message", [
    (lambda: as_matrix(np.zeros((2, 2, 2))), r"expected a matrix, got array of shape \(2, 2, 2\)"),
    (lambda: tensor(), "needs at least one factor"),
], ids=["3-D array", "no factors"])
def test_what_is_no_matrix_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
    (np.eye(4) / 4, [2.5, 2.2], [0], "must be integers"),   # int() would truncate to (2, 2)
    (np.eye(4) / 4, [2, 2], [0.5], "must be integers"),
], ids=["zero dim", "negative dims", "keep past end", "negative keep", "non-square", "nan",
        "fractional dims", "fractional keep"])
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


@pytest.mark.parametrize("vals", [
    [0.5, 0.3, 0.2],
    [0.6, 0.4, 0.5 * EPS_SUPP * 0.6, 0.0, -1e-12],
    [1.0, 2 * EPS_SUPP, 0.0],
    [0.0, 0.0],
])
def test_support_eig_is_the_cut_spectrum_descending(vals):
    u = haar_unitary(len(vals), 41)
    lam, v = support_eig((u * vals) @ u.conj().T)
    want = sorted((x for x in vals if _on_support(np.array([x]), max(vals))), reverse=True)
    assert np.abs(lam - want).max(initial=0.0) <= 1e-15
    assert v.shape == (len(vals), len(want))
    assert np.abs(v.conj().T @ v - np.eye(len(want))).max(initial=0.0) <= 1e-14
    assert np.abs((u * vals) @ u.conj().T @ v - v * lam).max(initial=0.0) <= 1e-15


def _sinhc_reference(x: float) -> float:
    """x / sinh(x) from the Taylor series of sinh in 60-digit decimals."""
    if x == 0.0:
        return 1.0
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = decimal.Decimal(x)
        term, total, k = x, x, 1
        while abs(term) > abs(total) * decimal.Decimal(10) ** -60:
            term *= x * x / ((2 * k) * (2 * k + 1))
            total += term
            k += 1
        return float(x / total)


def test_sinhc_is_one_at_zero_and_x_over_sinh_x_elsewhere():
    x = np.array([0.0, 1e-300, -1e-300, 1.0, -1.0, 30.0, -30.0])
    with np.errstate(all="raise"):
        got = _sinhc(x)
    want = np.array([_sinhc_reference(v) for v in x])
    assert got[0] == 1.0
    assert np.all(np.abs(got - want) <= np.spacing(want))


@pytest.mark.parametrize("top", [0.5, 10.0])
def test_negativity_guard_scales_with_max_one_top(top):
    scale = max(1.0, top)
    _check_psd(-0.5e-8 * scale, top)
    with pytest.raises(ValueError, match="negative eigenvalues beyond tolerance"):
        _check_psd(-2e-8 * scale, top)


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


# Eigenpairs (1/2 each, U = s I) whose vectors are not orthonormal: the raw
# fidelity is s**4, (s**2 * sum of 1/2)**2 over (sum of 1/2)**2
def _scaled_pair(s):
    return np.array([0.5, 0.5]), s * np.eye(2)


def test_fidelity_beyond_the_guard_band_is_an_error():
    assert 1.001 ** 4 > 1.0 + _FIDELITY_GUARD
    with pytest.raises(ValueError, match=r"fidelity 1\.004.* outside \[0, 1\] beyond guard band"):
        _fidelity(_scaled_pair(1.001), _scaled_pair(1.001))


def test_fidelity_inside_the_guard_band_is_clipped_to_one():
    s = 1.0 + 1e-11
    assert 1.0 < s ** 4 < 1.0 + _FIDELITY_GUARD
    assert _fidelity(_scaled_pair(s), _scaled_pair(s)) == 1.0


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
