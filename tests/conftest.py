"""Shared independent oracles for the test suite.

These deliberately avoid the library code paths they are used to check:
the partial trace runs explicit index loops, local operators are embedded
as dense matrices through a basis permutation, the fidelity oracle goes
through scipy matrix square roots, matrix powers are taken on scalars, and
the rotated Petz average over p(t) is done by numerical quadrature instead
of the library's closed form.

Some oracles keep earlier library constructions as plain functions: the
measured state as blocks ``Tr_A[(P_x (x) I) rho]`` taken by partial trace,
the doubly measured state by its rank-one formula, the measurement
channel with one Kraus operator per outcome and basis state, its
extension by the identity on the other subsystems (so the generic rotated
Petz map gives the measurement-reversal map as an independent
construction), the Fourier PVM, the isometric extension of a PVM, the identity channel, and
the relation checks that measure the whole state before reducing it.  The
latter are built from library primitives.  The circuit simulator is kept
step by step: each gate, then depolarizing on each qubit it touches, a
register appended in |0> before the outcome is copied into it, a recovery
by the textbook action of its Choi matrix, a partial trace, and shot
tables from per-axis reductions and Pauli projectors, each table flipped
bit by bit and drawn by its own multinomial call.  The outcome
distributions in the Pauli bases are also kept as the einsum of the
diagonal of ``U^dag rho U`` that the simulator used before it read them
through one readout matrix.
"""

import numpy as np
import scipy.linalg

from eurqsi.entropy import conditional
from eurqsi.linalg import apply_local, fidelity, partial_trace
from eurqsi.recovery import CpMap, apply_map, choi_from_kraus, rotated_petz_map
from eurqsi.simulate import _PROGRAMS, GATES, ShotTable
from eurqsi.states import DensityOperator, Pvm, ket_bra, measure, pauli_pvm, pinch, purify


def loop_partial_trace(m, dims, keep):
    """Partial trace via explicit index summation (slow, obviously correct)."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    dk = int(np.prod(kept_dims)) if kept_dims else 1
    out = np.zeros((dk, dk), dtype=complex)

    def flat(idx):
        val = 0
        for i, d in enumerate(dims):
            val = val * d + idx[i]
        return val

    def flat_kept(idx):
        val = 0
        for pos, i in enumerate(keep):
            val = val * kept_dims[pos] + idx[i]
        return val

    from itertools import product
    for row in product(*[range(d) for d in dims]):
        for col in product(*[range(d) for d in dims]):
            if any(row[i] != col[i] for i in traced):
                continue
            out[flat_kept(row), flat_kept(col)] += m[flat(row), flat(col)]
    return out


def permutation_matrix(dims, order):
    """Matrix sending basis |i_0 .. i_{n-1}> to the subsystem order given."""
    dims = tuple(int(d) for d in dims)
    d = int(np.prod(dims))
    src = np.unravel_index(np.arange(d), dims)
    perm_dims = tuple(dims[o] for o in order)
    dst = np.ravel_multi_index([src[o] for o in order], perm_dims)
    p = np.zeros((d, d), dtype=complex)
    p[dst, np.arange(d)] = 1.0
    return p


def embedded_operator_oracle(op, positions, dims):
    """Dense full-space operator acting as ``op`` on ``positions`` (in order).

    Permutes ``positions`` to the front, applies ``op (x) I`` there and
    permutes back, all as explicit d x d matrices.
    """
    positions = list(positions)
    rest = [i for i in range(len(dims)) if i not in positions]
    p = permutation_matrix(dims, positions + rest)
    rest_dim = int(np.prod([dims[i] for i in rest], initial=1))
    return dagger(p) @ np.kron(op, np.eye(rest_dim)) @ p


def sqrtm_fidelity(rho, sigma):
    """Uhlmann fidelity via scipy's sqrtm, independent of the eigh route."""
    s = scipy.linalg.sqrtm(rho)
    inner = scipy.linalg.sqrtm(s @ sigma @ s)
    return float(np.real(np.trace(inner)) ** 2)


def shannon_bits(probs):
    probs = np.asarray(probs, dtype=float)
    probs = probs[probs > 1e-15]
    return float(-np.sum(probs * np.log2(probs)))


def dagger(m):
    return np.conjugate(np.asarray(m).T)


def rank_one_vectors(pvm):
    """The kets of a rank-one PVM, from ``np.linalg.eigh`` of each projector."""
    return [np.linalg.eigh(p)[1][:, -1] for p in pvm.projectors]


def _block_oracle(rho, dims, pos, p):
    """Tr_pos[(P (x) I) rho] with P embedded at ``pos`` by kron."""
    before = int(np.prod(dims[:pos], initial=1))
    after = int(np.prod(dims[pos + 1:], initial=1))
    emb = np.kron(np.kron(np.eye(before), p), np.eye(after))
    return partial_trace(emb @ rho, dims, [i for i in range(len(dims)) if i != pos])


def _register_first(blocks):
    """sum_x |x><x| (x) blocks[x]."""
    n = len(blocks)
    return sum(np.kron(np.diag(np.eye(n)[x]), b) for x, b in enumerate(blocks))


def measured_state_oracle(rho, dims, pos, pvm):
    """Register-first measured state, block x = Tr_A[(P_x (x) I) rho]."""
    return _register_first([_block_oracle(rho, dims, pos, p) for p in pvm.projectors])


def theta_state_oracle(rho, dims, pos, x_pvm, z_pvm):
    """Register-first X-after-Z state, block x = sum_z <z|P_x|z> omega_z."""
    zvecs = rank_one_vectors(z_pvm)
    omegas = [_block_oracle(rho, dims, pos, np.outer(z, z.conj())) for z in zvecs]
    return _register_first([
        sum(np.real(z.conj() @ p @ z) * om for z, om in zip(zvecs, omegas))
        for p in x_pvm.projectors
    ])


def pinched_state_oracle(rho_ab, zvecs):
    """sum_z |z><z| (x) (<z| (x) I) rho (|z> (x) I) by plain kron algebra."""
    d_a = len(zvecs[0])
    d_b = rho_ab.shape[0] // d_a
    out = np.zeros_like(rho_ab)
    for z in zvecs:
        bra = np.kron(np.conjugate(z).reshape(1, -1), np.eye(d_b))
        block = bra @ rho_ab @ dagger(bra)
        out += np.kron(np.outer(z, np.conjugate(z)), block)
    return out


def _support_power(m, z, eps=1e-10):
    """m**z on the eigenvalues above the relative cutoff ``eps``; 0 elsewhere."""
    vals, vecs = np.linalg.eigh(m)
    mask = vals > eps * max(vals.max(), 0.0)
    v = vecs[:, mask]
    return (v * vals[mask].astype(complex) ** z) @ dagger(v)


def rotated_petz_choi_oracle(sigma, kraus, t_max=12.0, panels=64, order=8):
    """Choi matrix of the rotated Petz recovery by numerical quadrature.

    The recovery of the channel with Kraus operators ``kraus`` relative to
    ``sigma`` has, at rotation t, the Kraus operators
    ``sigma^{(1-it)/2} K^dag N(sigma)^{(-1+it)/2}``.  They are averaged
    against p(t) = (pi/2)/(cosh(pi t) + 1) by composite Gauss-Legendre
    quadrature on [-t_max, t_max]; the defaults resolve the integral to
    ~1e-15, since p decays like exp(-pi |t|).  Choi convention: input index
    slow, ``choi = sum_ij E_ij (x) map(E_ij)``.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-t_max, t_max, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * w).ravel() * (np.pi / 2) / (np.cosh(np.pi * nodes) + 1)
    n_sigma = sum(k @ sigma @ dagger(k) for k in kraus)
    dim = sigma.shape[0] * n_sigma.shape[0]
    choi = np.zeros((dim, dim), dtype=complex)
    for t, wt in zip(nodes, weights):
        s_pow = _support_power(sigma, (1 - 1j * t) / 2)
        n_pow = _support_power(n_sigma, (-1 + 1j * t) / 2)
        for k in kraus:
            vec = (s_pow @ dagger(k) @ n_pow).ravel(order="F")
            choi += wt * np.outer(vec, vec.conj())
    return choi


def haar_unitary(dim, seed):
    """Haar-random unitary: QR of a complex Gaussian matrix, R's phases removed."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# Negative eigenvalues that DensityOperator accepts (it rejects below -1e-8).
ROUND_OFF_MASSES = (5e-11, 5e-10, 5e-9, 9e-9)


def rotated_spectrum(vals, seed):
    """Hermitian matrix with eigenvalues ``vals`` in a Haar-random basis."""
    u = haar_unitary(len(vals), seed)
    m = (u * np.asarray(vals, dtype=float)) @ dagger(u)
    return 0.5 * (m + dagger(m))


def support_projector(m):
    """Projector on the eigenvectors of ``m`` above 1e-10 times its top
    eigenvalue."""
    vals, vecs = np.linalg.eigh(m)
    v = vecs[:, vals > 1e-10 * vals.max()]
    return v @ dagger(v)


def rank2_plus_rank1_pvm(seed):
    """Two-outcome qutrit PVM: a rank-2 and a rank-1 projector."""
    u = haar_unitary(3, seed)
    return Pvm((u[:, :2] @ dagger(u[:, :2]), u[:, 2:] @ dagger(u[:, 2:])))


def pvm_entrywise_defect(projectors):
    """The largest entry of P_x^2 - P_x, of P_x P_y (x < y) and of
    sum P_x - I, and of P_x - P_x^dag: the PVM tests as entrywise loops."""
    d = projectors[0].shape[0]
    worst = max(np.abs(p @ p - p).max() for p in projectors)
    worst = max(worst, np.abs(sum(projectors) - np.eye(d)).max())
    for i, p in enumerate(projectors):
        worst = max([worst, np.abs(p - dagger(p)).max()]
                    + [np.abs(p @ q).max() for q in projectors[i + 1:]])
    return worst


def choi_of_kraus(kraus):
    """sum_k vec(K_k) vec(K_k)^dag with column-stacking vec (input index slow)."""
    vecs = [np.ravel(np.asarray(k), order="F") for k in kraus]
    return sum(np.outer(v, v.conj()) for v in vecs)


def fourier_pvm(dim):
    """Rank-one PVM in the discrete Fourier basis."""
    w = np.exp(2j * np.pi / dim)
    return Pvm.from_basis([[w ** (j * k) / np.sqrt(dim) for k in range(dim)]
                           for j in range(dim)])


def isometric_extension(pvm):
    """Isometry ``sum_x |x> (x) |x> (x) P_x`` from A into X, X', A."""
    n = len(pvm)
    return sum(np.kron(np.kron(e, e), p)
               for e, p in zip(np.eye(n).reshape(n, n, 1), pvm.projectors))


def identity_map(dims, labels=()):
    """The identity channel on ``dims``, trace-preserving everywhere."""
    eye = np.eye(int(np.prod(dims)), dtype=complex)
    return CpMap.from_kraus((eye,), in_dims=tuple(dims), out_dims=tuple(dims), support=eye,
                            in_labels=tuple(labels), out_labels=tuple(labels))


def incompatibility_loop_oracle(x_pvm, z_pvm):
    """max over projector pairs of ||P_x Q_z||^2, one SVD norm per pair."""
    best = max(np.linalg.norm(p @ q, 2) ** 2
               for p in x_pvm.projectors for q in z_pvm.projectors)
    return min(float(best), 1.0)


def measurement_kraus_nd_oracle(pvm):
    """The n*d Kraus operators ``|x><j| P_x`` of a PVM's measurement channel."""
    n, d = len(pvm), pvm.dim
    return [np.outer(np.eye(n)[x], np.eye(d)[j]) @ p
            for x, p in enumerate(pvm.projectors) for j in range(d)]


def tensor_with_identity(channel, side_dims, side_labels):
    """``channel (x) id`` on appended subsystems, its Choi matrix the
    product of ``channel.choi`` and the unnormalized maximally entangled
    operator on the side, with the factors regrouped as (in, side, out, side)."""
    side_dims = tuple(int(d) for d in side_dims)
    d_s = int(np.prod(side_dims))
    eye = np.eye(d_s, dtype=complex)
    omega = eye.reshape(-1)
    di, do = channel.in_dim, channel.out_dim
    choi = np.kron(channel.choi, np.outer(omega, omega.conj()))
    choi = choi.reshape(di, do, d_s, d_s, di, do, d_s, d_s).transpose(0, 2, 1, 3, 4, 6, 5, 7)
    d = di * do * d_s * d_s
    support = channel.support if channel.support is not None else np.eye(di)
    return CpMap(
        choi=choi.reshape(d, d),
        in_dims=channel.in_dims + side_dims,
        out_dims=channel.out_dims + side_dims,
        support=np.kron(support, eye),
        in_labels=channel.in_labels + tuple(side_labels),
        out_labels=channel.out_labels + tuple(side_labels),
    )


def _reversibility_nd_oracle(rho_ab, x_pvm, z_pvm, sigma_xb, measured):
    """f = F(rho_AB, R(sigma_XB)), R built on the n*d measurement channel."""
    rest = [s for s in rho_ab.labels if s != measured]
    rho_ord = rho_ab.permute([measured] + rest)
    kraus = tuple(measurement_kraus_nd_oracle(x_pvm))
    chan = CpMap.from_kraus(kraus, (x_pvm.dim,), (len(x_pvm),))
    chan = tensor_with_identity(chan, rho_ord.dims[1:], rest)
    rec = rotated_petz_map(pinch(rho_ord, z_pvm, measured).matrix, chan)
    return fidelity(rho_ord.matrix, apply_map(rec, sigma_xb).matrix)


def _report(relation_id, h_xb, h_zb, h_ze, h_ab, c, f):
    """The report of ``relation_id`` as a plain dict with the keys of
    ``EurReport.to_dict``, its inequality computed here."""
    if relation_id == "bipartite_refined":
        lhs, rhs = h_zb + h_xb, -np.log2(c) + h_ab
    else:
        lhs, rhs = h_ze + h_xb, -np.log2(c)
    refined = rhs - np.log2(f)
    return {
        "relation_id": relation_id, "H_XB": h_xb, "H_ZB": h_zb, "H_ZE": h_ze,
        "H_AB": h_ab, "c": c, "f": f, "lhs": lhs, "rhs_original": rhs,
        "rhs_refined": refined, "slack_original": lhs - rhs, "slack_refined": lhs - refined,
        "entropy_tolerance": 1e-9, "fidelity_tolerance": 1e-6,
    }


def bipartite_report_oracle(rho_ab, x_pvm, z_pvm, measured="A"):
    """check_bipartite with H(Z|E) taken by measuring the whole purification."""
    b_labels = [s for s in rho_ab.labels if s != measured]
    sigma = measure(rho_ab, x_pvm, measured, "X")
    omega = measure(rho_ab, z_pvm, measured, "Z")
    omega_zbe = measure(purify(rho_ab, "_E"), z_pvm, measured, "Z")
    return _report(
        "bipartite_refined",
        h_xb=conditional(sigma, b_labels),
        h_zb=conditional(omega, b_labels),
        h_ze=conditional(omega_zbe.reduce(["Z", "_E"]), ["_E"]),
        h_ab=conditional(rho_ab, b_labels),
        c=incompatibility_loop_oracle(x_pvm, z_pvm),
        f=_reversibility_nd_oracle(rho_ab, x_pvm, z_pvm, sigma, measured),
    )


def tripartite_report_oracle(rho_abe, x_pvm, z_pvm, a_label="A", b_label="B",
                             purify_if_mixed=False):
    """check_tripartite measuring the whole ABE state, then reducing."""
    if purify_if_mixed and not rho_abe.is_pure():
        rho_abe = purify(rho_abe, "_E")
    e_labels = [s for s in rho_abe.labels if s not in (a_label, b_label)]
    sigma = measure(rho_abe, x_pvm, a_label, "X")
    omega = measure(rho_abe, z_pvm, a_label, "Z")
    rho_ab = rho_abe.reduce([a_label, b_label])
    sigma_xb = sigma.reduce(["X", b_label])
    return _report(
        "tripartite_refined",
        h_xb=conditional(sigma_xb, [b_label]),
        h_zb=conditional(omega.reduce(["Z", b_label]), [b_label]),
        h_ze=conditional(omega.reduce(["Z"] + e_labels), e_labels),
        h_ab=conditional(rho_ab, [b_label]),
        c=incompatibility_loop_oracle(x_pvm, z_pvm),
        f=_reversibility_nd_oracle(rho_ab, x_pvm, z_pvm, sigma_xb, a_label),
    )


def _stepwise_depolarize(rho, dims, qubit, p):
    if p == 0.0:
        return rho
    kraus = [np.sqrt(1.0 - 3.0 * p / 4.0) * GATES["i"]]
    kraus += [np.sqrt(p / 4.0) * GATES[axis] for axis in ("x", "y", "z")]
    return apply_local(rho, dims, kraus, [qubit])


def program_oracle(qubits, steps, noise):
    """Final ``(rho, dims, labels)`` of a simulator program, one elementary
    step at a time, every subsystem kept in its place.

    A gate is applied as its unitary alone (the first of its Kraus stack,
    the identity Pauli product times the gate), then each qubit it touches
    is depolarized.  A measurement appends its register in |0>, copies the
    outcome with the operators ``|m><m| (x) |m><0|`` on (target, register)
    and flips the register.  A recovery permutes its inputs to the front by
    a permutation matrix and applies the Choi matrix of its Kraus operators
    there as ``Tr_in[(rho^T_in (x) I_out) (choi (x) I_rest)]``, the rest
    carried along.  A step that writes nothing is a partial trace.
    """
    dims = [2] * qubits
    labels = [f"q{i}" for i in range(qubits)]
    psi = np.zeros(2 ** qubits, dtype=complex)
    psi[0] = 1.0
    rho = ket_bra(psi)
    for step in steps:
        positions = [labels.index(s) for s in step.reads]
        rest = [i for i in range(len(dims)) if i not in positions]
        if step.noise == "depolarizing":
            rho = apply_local(rho, dims, [step.kraus[0]], positions)
            for pos in positions:
                rho = _stepwise_depolarize(rho, dims, pos, noise.depolarizing_p)
        elif step.noise == "readout":
            basis = np.eye(2, dtype=complex)
            rho = np.kron(rho, ket_bra(basis[0]))
            dims.append(2)
            labels.append(step.writes[1])
            kraus = [np.kron(ket_bra(e), ket_bra(e, basis[0])) for e in basis]
            rho = apply_local(rho, dims, kraus, positions + [len(dims) - 1])
            q = noise.readout_flip
            if q > 0.0:
                flips = [np.sqrt(1.0 - q) * GATES["i"], np.sqrt(q) * GATES["x"]]
                rho = apply_local(rho, dims, flips, [len(dims) - 1])
        elif step.writes:
            perm = permutation_matrix(dims, positions + rest)
            cpmap = CpMap(choi_from_kraus(step.kraus), (2,) * len(step.reads),
                          (2,) * len(step.writes))
            rho = choi_action_oracle(cpmap, perm @ rho @ perm.T)
            dims = list(cpmap.out_dims) + [dims[i] for i in rest]
            labels = list(step.writes) + [labels[i] for i in rest]
        else:
            rho = partial_trace(rho, dims, rest)
            dims, labels = [dims[i] for i in rest], [labels[i] for i in rest]
    return rho, dims, labels


def choi_action_oracle(cpmap, m):
    """``(map (x) id)(m)`` for ``m`` laid out (input, rest), by the textbook
    formula ``Tr_in[(m^T_in (x) I_out) (choi (x) I_rest)]`` with both
    factors on (in, out, rest)."""
    d_in, d_out = cpmap.in_dim, cpmap.out_dim
    r = m.shape[0] // d_in
    m_t = m.reshape(d_in, r, d_in, r).transpose(2, 1, 0, 3).reshape(m.shape)
    perm = permutation_matrix((d_in, r, d_out), (0, 2, 1))
    lhs = perm @ np.kron(m_t, np.eye(d_out)) @ perm.T
    return partial_trace(lhs @ np.kron(cpmap.choi, np.eye(r)), (d_in, d_out, r), [1, 2])


def flip_distribution(probs, q):
    """Independent classical bit flips on one 2**n outcome distribution, one
    bit axis at a time by a 2x2 stochastic matrix."""
    if q == 0.0:
        return probs
    n_bits = int(np.log2(len(probs)))
    t = probs.reshape((2,) * n_bits)
    for axis in range(n_bits):
        t = np.tensordot(np.array([[1.0 - q, q], [q, 1.0 - q]]), t, axes=([1], [axis]))
        t = np.moveaxis(t, 0, axis)
    return t.reshape(-1)


def sample_distribution(probs, outcome_labels, shots, rng):
    """One shot table drawn from one distribution, snapped to the 1e-12 grid
    as the simulator snaps it."""
    probs = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    probs = np.round(probs / probs.sum(), 12)
    probs = probs / probs.sum()
    counts = rng.multinomial(shots, probs)
    return ShotTable(dict(zip(outcome_labels, (int(c) for c in counts))), shots)


def basis_probabilities_oracle(rho, bases):
    """Outcome distribution of ``rho`` in each basis ``U`` of ``bases``: the
    diagonal of ``U^dag rho U``, one row per basis, by one einsum."""
    return np.einsum("aji,jk,aki->ai", bases.conj(), rho, bases).real


def experiment_oracle(exp_id, shots, noise, seed):
    """Final state and shot counts of one experiment, as ``run_experiment``
    computed them before each op became one Kraus step.

    The experiment's program is walked by :func:`program_oracle`, the
    final state is validated, and each table reduces it and sums
    ``Tr(P rho)`` over the Pauli projectors (``P_a (x) P_b*`` for the
    two-qubit correlations); each table is drawn on its own, in turn, from
    the one generator.
    """
    program = _PROGRAMS[exp_id]
    rho, dims, labels = program_oracle(program.qubits, program.steps, noise)
    final = DensityOperator(rho, dims, labels)
    rng = np.random.default_rng([int(seed), int(exp_id)])
    counts = {}
    if exp_id <= 4:
        reduced = final.reduce(["Ap"])
        for axis in ("X", "Y", "Z"):
            probs = [float(np.trace(p @ reduced.matrix).real)
                     for p in pauli_pvm(axis).projectors]
            probs = flip_distribution(np.array(probs), noise.readout_flip)
            counts[axis] = sample_distribution(probs, ("0", "1"), shots, rng).counts
        return reduced.matrix, counts
    reduced = final.reduce(["Ap", "B"])
    for key, axis in (("XX", "X"), ("YY*", "Y"), ("ZZ", "Z")):
        projectors = pauli_pvm(axis).projectors
        probs = [float(np.trace(np.kron(pa, pb.conj()) @ reduced.matrix).real)
                 for pa in projectors for pb in projectors]
        probs = flip_distribution(np.array(probs), noise.readout_flip)
        outcomes = ("00", "01", "10", "11")
        counts[key] = sample_distribution(probs, outcomes, shots, rng).counts
    return reduced.matrix, counts
