"""Shared independent oracles for the test suite.

These deliberately avoid the library code paths they are used to check:
the partial trace runs explicit index loops, local operators are embedded
as dense matrices through a basis permutation, the fidelity oracle goes
through scipy matrix square roots, matrix powers are taken on scalars, and
the rotated Petz average over p(t) is done by numerical quadrature instead
of the library's closed form.
"""

import numpy as np
import scipy.linalg


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
