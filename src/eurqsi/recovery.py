"""Recovery channels: Petz, rotated Petz, and the measurement-reversal map.

A completely positive map is its Choi matrix, built as ``(id (x) map)``
applied to the unnormalized maximally entangled operator with the input
system first: ``choi = sum_ij E_ij (x) map(E_ij)``.  In this convention a
map that preserves trace on a subspace with projector ``P`` satisfies
``Tr_out(choi) = P.T``.  The Choi matrix is the map: it is the one form
that is kept, checked and applied, by one contraction that can carry other
subsystems along (:meth:`CpMap._apply`).  Kraus operators are only an
input form (:meth:`CpMap.from_kraus`); the measurement channel is built
from the PVM's own :attr:`~eurqsi.states.Pvm.kraus`.

The rotated Petz construction averages unitary rotations by imaginary
operator powers against the density ``p(t) = (pi/2) / (cosh(pi t) + 1)``.
Its characteristic function is ``E[exp(i w t)] = w / sinh(w)``, so the
average is computed exactly in the eigenbases of the reference state and
its image (:func:`rotated_petz_map`).  Both Petz maps are read off one
congruence of the channel's Choi matrix by those eigenbases (:func:`_petz`).

The measurement-reversal map R is that recovery for the X measurement
N = M_X (x) id relative to the Z-pinched state tau, and one kernel,
:func:`_reversal`, computes it in block form for both of its users: the
reversibility term f of :mod:`eurqsi.relations` and the explicit channel
:func:`eur_recovery_map`.  N(tau) is the direct sum over the outcomes x of
the blocks tau_x = Tr_A[(P_x (x) I) tau], so with tau = sum_a l_a |a><a|
(eigenvectors V) and tau_x = sum_j m_xj |w_xj><w_xj|, each restricted to
its support, the Choi matrix of R vanishes between different outcomes and
its block x is

    sum_{a j a' j'} |w*_xj><w*_xj'| (x) sqrt(l_a l_a' / (m_xj m_xj'))
                    K[x, a, j, a', j'] |a><a'|

with ``K = Gram o sinhc``: ``Gram[x, a, j, a', j'] = sum_v <a|v (x) w_xj>
<v (x) w_xj'|a'>`` over the Kraus operators |x><v| of outcome x, and
``sinhc(phi_a,xj - phi_a',xj')`` with ``phi_a,xj = (ln l_a - ln m_xj) / 2``.
tau is block diagonal in Z's basis: with R_z the isometry onto range(Q_z),
its blocks are ``(R_z (x) I) rho (R_z^dag (x) I)``, so its eigenpairs come
from one batched eigensolve of those blocks, which the caller takes (for Z
with one range slot, the checks share it with H(ZB)), each eigenvector
mapped back through ``R_z^dag (x) I``.  tau is cut to its support once,
against the top of the union of the block spectra, and the blocks tau_x are
formed from the cut eigenpairs; the support of N(tau) is cut by the same
rule against the top of its whole spectrum, the union of the block spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (_block_diagonal, _on_support, _sinhc, as_matrix, dagger,
                     eigenvalue_below, is_hermitian, support_eig)
from .states import DensityOperator, InvalidStateError, Pvm, _check_pvm_dim, _compressed

CHOI_TOL = 1e-8


@dataclass(frozen=True)
class CpMap:
    """Completely positive map between labeled multipartite spaces.

    ``support`` is the projector on the input space where the map is
    trace-preserving (identity when None).  The Choi matrix is the map: it
    is validated once, here, and every application goes through it.  A map
    known by its Kraus operators is built with :meth:`from_kraus`.
    """

    choi: np.ndarray
    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    support: np.ndarray | None = None
    in_labels: tuple[str, ...] = ()
    out_labels: tuple[str, ...] = ()

    def __post_init__(self):
        choi = as_matrix(self.choi)
        in_dims = tuple(int(d) for d in self.in_dims)
        out_dims = tuple(int(d) for d in self.out_dims)
        object.__setattr__(self, "choi", choi)
        object.__setattr__(self, "in_dims", in_dims)
        object.__setattr__(self, "out_dims", out_dims)
        if not self.in_labels:
            object.__setattr__(self, "in_labels", tuple(f"in{i}" for i in range(len(in_dims))))
        if not self.out_labels:
            object.__setattr__(self, "out_labels", tuple(f"out{i}" for i in range(len(out_dims))))
        d = self.in_dim * self.out_dim
        if choi.shape != (d, d):
            raise ValueError(f"Choi shape {choi.shape} does not match dims ({d}, {d})")
        scale = max(1.0, float(np.abs(choi).max()))
        if np.abs(choi - dagger(choi)).max() > CHOI_TOL * scale:
            raise ValueError("Choi matrix is not Hermitian")
        if eigenvalue_below(choi, CHOI_TOL * scale) is not None:
            raise ValueError("Choi matrix is not positive semidefinite")
        if self.support is not None:
            support = as_matrix(self.support)
            if support.shape != (self.in_dim, self.in_dim):
                raise ValueError(f"support shape {support.shape} does not match input {self.in_dim}")
            object.__setattr__(self, "support", support)

    @classmethod
    def from_kraus(cls, kraus, in_dims, out_dims, **fields) -> "CpMap":
        """Map ``sum_k K_k (.) K_k^dag``, each ``K_k`` an (out, in) matrix;
        only its Choi matrix is kept."""
        kraus = [as_matrix(k) for k in kraus]
        shape = (math.prod(out_dims), math.prod(in_dims))
        if any(k.shape != shape for k in kraus):
            raise ValueError(f"Kraus operator shape does not match {shape}")
        return cls(choi_from_kraus(kraus), in_dims, out_dims, **fields)

    @property
    def in_dim(self) -> int:
        return math.prod(self.in_dims)

    @property
    def out_dim(self) -> int:
        return math.prod(self.out_dims)

    def choi_blocks(self) -> np.ndarray:
        """Choi reshaped to (in, out, in, out) axes."""
        di, do = self.in_dim, self.out_dim
        return self.choi.reshape(di, do, di, do)

    def apply_matrix(self, xi: np.ndarray) -> np.ndarray:
        """Apply to a raw input-space matrix (no state validation)."""
        xi = as_matrix(xi)
        if xi.shape != (self.in_dim, self.in_dim):
            raise ValueError(f"input shape {xi.shape} does not match {self.in_dim}")
        return self._apply(xi)

    def _apply(self, m: np.ndarray) -> np.ndarray:
        """``(map (x) id)(m)`` for ``m`` laid out (input, rest), the rest
        carried along behind the output; nothing is checked.

        ``sum_ij m[(i, r), (j, s)] choi[(i, a), (j, b)]`` as one matmul of
        the (r s, i j) and (i j, a b) layouts.
        """
        di, do = self.in_dim, self.out_dim
        r = m.shape[0] // di
        t = m.reshape(di, r, di, r).transpose(1, 3, 0, 2).reshape(r * r, di * di)
        j = self.choi_blocks().transpose(0, 2, 1, 3).reshape(di * di, do * do)
        out = (t @ j).reshape(r, r, do, do).transpose(2, 0, 3, 1)
        return out.reshape(do * r, do * r)

    def trace_preservation_defect(self) -> float:
        """Max deviation of Tr_out(choi) from the support projector."""
        target = self.support if self.support is not None else np.eye(self.in_dim)
        tr_out = np.einsum("iaja->ij", self.choi_blocks())
        # Tr{map(E_ij)} = P[j, i], hence the transpose.
        return float(np.abs(tr_out - target.T).max())


def choi_from_kraus(kraus) -> np.ndarray:
    """Choi matrix of ``sum_k K_k (.) K_k^dag``: the sum of vec(K_k) vec(K_k)^dag
    with the column-stacking vec (input index slow) of the Choi convention."""
    vecs = np.stack([np.ravel(as_matrix(k), order="F") for k in kraus])
    return vecs.T @ vecs.conj()


def measurement_channel(pvm: Pvm) -> CpMap:
    """Channel mapping a state on A to its measurement statistics register X.

    Its Kraus operators are the PVM's measurement operators :attr:`Pvm.kraus`.
    """
    return CpMap.from_kraus(
        pvm.kraus,
        in_dims=(pvm.dim,),
        out_dims=(len(pvm),),
        support=np.eye(pvm.dim, dtype=complex),
        in_labels=("A",),
        out_labels=("X",),
    )


def _petz_spectra(sigma: np.ndarray, channel: CpMap):
    """Support eigenpairs ``(l, V)`` of ``sigma`` and ``(m, W)`` of N(sigma).

    ``sigma`` must be Hermitian and is rejected as non-PSD only through
    :func:`~eurqsi.linalg._check_psd` (in :func:`~eurqsi.linalg.support_eig`);
    it is cut to its support once, and N is applied to the cut ``sigma``, so
    both Petz maps see one operator and preserve trace on supp(N(sigma)).
    """
    sigma = as_matrix(sigma)
    if sigma.shape != (channel.in_dim, channel.in_dim):
        raise ValueError(
            f"sigma dimension {sigma.shape[0]} incompatible with channel input {channel.in_dim}"
        )
    if not is_hermitian(sigma):
        raise ValueError("sigma is not Hermitian within tolerance")
    lam, v = support_eig(sigma)
    mu, w = support_eig(channel.apply_matrix((v * lam) @ dagger(v)))
    return lam, v, mu, w


def petz_map(sigma: np.ndarray, channel: CpMap) -> CpMap:
    """Petz recovery of ``channel`` relative to the PSD operator ``sigma``.

    ``Y -> sigma^{1/2} N^dag(N(sigma)^{-1/2} Y N(sigma)^{-1/2}) sigma^{1/2}``,
    each power taken on its support; the map restores ``sigma`` from
    ``N(sigma)`` and is trace-preserving on supp(N(sigma)).  Its Choi matrix
    is ``U Gram(C) U^dag`` (see :func:`rotated_petz_map`).
    """
    return _petz(sigma, channel, rotated=False)


def rotated_petz_map(sigma: np.ndarray, channel: CpMap) -> CpMap:
    """Rotated Petz recovery: Petz conjugated by imaginary powers, averaged
    over p(t).

    For a channel with Kraus operators K_k, the recovery at rotation t has
    the Kraus operators ``sigma^{(1-it)/2} K^dag N(sigma)^{(-1+it)/2}``.  In
    the eigenbases of sigma (eigenvalues l_a, vectors V) and N(sigma)
    (m_c, W), restricted to their supports, these have entries
    ``C_k[a, c] exp(-i t phi_ac)`` with ``C_k[a, c] = sqrt(l_a / m_c)
    <a|K_k^dag|c>`` and ``phi_ac = (ln l_a - ln m_c) / 2``.  The p(t)
    average turns the phase products into ``sinhc(phi_ac - phi_a'c')``, so
    the Choi matrix is ``U (Gram(C) o sinhc) U^dag`` with
    ``U = conj(W) (x) V``; t = 0 alone gives the Petz map.
    """
    return _petz(sigma, channel, rotated=True)


def _petz(sigma: np.ndarray, channel: CpMap, rotated: bool) -> CpMap:
    """The Petz map, or with ``rotated`` the rotated Petz map, of ``channel``
    relative to ``sigma``, from the channel's Choi matrix J alone.

    ``Gram(C)[(c, a), (c', a')] = sum_k C_k[a, c] conj(C_k[a', c'])`` is
    ``sqrt(l_a l_a' / (m_c m_c'))`` times the entry ``((a, c), (a', c'))``
    of the congruence ``T^dag J^T T`` with ``T = V (x) conj(W)``, since
    ``sum_k conj(K_k[x, i]) K_k[y, j] = J^T[(i, x), (j, y)]``.
    """
    lam, v, mu, w = _petz_spectra(sigma, channel)
    n_a, n_c = len(lam), len(mu)
    t = np.kron(v, w.conj())
    gram = (dagger(t) @ channel.choi.T @ t).reshape(n_a, n_c, n_a, n_c)
    gram = gram.transpose(1, 0, 3, 2).reshape(n_c * n_a, -1)     # (c, a) order
    scale = np.sqrt(lam[None, :] / mu[:, None]).ravel()
    kernel = gram * np.outer(scale, scale)
    if rotated:
        phi = 0.5 * (np.log(lam)[None, :] - np.log(mu)[:, None]).ravel()
        kernel = kernel * _sinhc(phi[:, None] - phi[None, :])
    u = np.kron(w.conj(), v)
    return CpMap(
        choi=u @ kernel @ dagger(u),
        in_dims=channel.out_dims,
        out_dims=channel.in_dims,
        support=w @ dagger(w),
        in_labels=channel.out_labels,
        out_labels=channel.in_labels,
    )


def _reversal(z_eig: tuple[np.ndarray, np.ndarray], x_pvm: Pvm, z_pvm: Pvm):
    """Block form of the measurement-reversal map R (see the module docstring).

    The state has the measured subsystem A first and B the rest, a layout
    tau and the output of R keep.  ``z_eig`` is the batched ``eigh`` of its
    compression to each range of Z, ``(R_z (x) I) rho (R_z^dag (x) I)``
    (:func:`~eurqsi.states._compressed`): tau is block diagonal in Z's basis
    with these blocks, so this is its spectrum, and each eigenvector maps
    back through ``R_z^dag (x) I``.

    Returns tau's support pair ``(l, V)``, the block pairs ``(m_x, W_x)`` of
    N(tau) as an ``(outcomes, r)`` and an ``(outcomes, r, r)`` stack, and
    the kernel ``K = Gram o sinhc`` on axes ``(x, a, j, a', j')``.  Off the
    support of N(tau) the eigenvalues are 1, which keeps the logs finite,
    and the eigenvectors are zero, which drops their terms.
    """
    d_a, n = x_pvm.dim, len(x_pvm)
    z_ranges, x_ranges = z_pvm._ranges, x_pvm._ranges
    n_z, r_z = z_ranges.shape[:2]
    vals, vecs = z_eig
    keep = _on_support(vals)
    lam = vals[keep]
    # V[(i, b), (z, s)] = sum_j conj(R_z[j, i]) u_zs[j, b]
    v = np.einsum("zji,zjbs->ibzs", z_ranges.conj(), vecs.reshape(n_z, r_z, -1, vecs.shape[-1]))
    v = v.reshape(-1, *keep.shape)[:, keep]
    # y[x, k, b, a] = (<x_k| (x) I)|a>; the blocks of N(tau) are sum_k y l y^dag
    y = np.einsum("xki,iba->xkba", x_ranges, v.reshape(d_a, -1, len(lam)))
    mu, w = np.linalg.eigh(((y * lam) @ y.conj().transpose(0, 1, 3, 2)).sum(axis=1))
    keep = _on_support(mu)
    mu = np.where(keep, mu, 1.0)
    w = w * keep[:, None, :]
    # h[x, k, (a, j)] = <x_k (x) w_xj|a>, zero on padded slots k
    h = np.einsum("xbj,xkba->xkaj", w.conj(), y).reshape(n, x_ranges.shape[1], -1)
    phi = 0.5 * (np.log(lam)[None, :, None] - np.log(mu)[:, None, :])      # (x, a, j)
    kernel = _sinhc(phi[:, :, :, None, None] - phi[:, None, None, :, :])  # (x, a, j, a', j')
    gram = (h.conj().transpose(0, 2, 1) @ h).reshape(kernel.shape)
    return lam, v, mu, w, gram * kernel


def eur_recovery_map(
    rho_ab: DensityOperator,
    x_pvm: Pvm,
    z_pvm: Pvm,
    measured: str = "A",
    register_label: str = "X",
) -> CpMap:
    """Explicit recovery channel undoing an X measurement given a prior
    rank-one Z measurement.

    Acts on the (register, rest) space and restores the measured subsystem
    in front of the rest.  On the support of the doubly measured state it
    is the rotated Petz recovery of the X measurement relative to the
    Z-pinched state, assembled from :func:`_reversal`; a completion branch
    routes the orthogonal complement to the pinched state, so the channel
    is trace-preserving everywhere.  R reads only the diagonal register
    blocks of its input, so its Choi matrix is block diagonal in the
    outcome, and the completion of block x is
    ``(I - W_x W_x^dag)^T (x) tau / Tr tau``.
    """
    if not z_pvm.is_rank_one():
        raise InvalidStateError("eur_recovery_map needs a rank-one Z measurement")
    dims, pos = rho_ab.dims, rho_ab.label_index(measured)
    _check_pvm_dim(x_pvm, dims[pos], measured)
    _check_pvm_dim(z_pvm, dims[pos], measured)
    # the channel restores A in front of the rest, the layout of the compression
    order = [pos] + [i for i in range(len(dims)) if i != pos]
    out_dims, out_labels = tuple(dims[i] for i in order), tuple(rho_ab.labels[i] for i in order)
    z_eig = np.linalg.eigh(_compressed(rho_ab.matrix, dims, z_pvm, pos))
    lam, v, mu, w, kernel = _reversal(z_eig, x_pvm, z_pvm)
    n, r, d = w.shape[0], w.shape[1], len(v)
    # u[x, (b, q), (a, j)] = conj(w_xj[b]) / sqrt(m_xj) * sqrt(l_a) V[q, a]
    u = np.einsum("xbj,qa->xbqaj", w.conj() / np.sqrt(mu[:, None, :]), v * np.sqrt(lam))
    u = u.reshape(n, r * d, -1)
    blocks = u @ kernel.reshape(n, u.shape[2], -1) @ u.conj().transpose(0, 2, 1)
    complement = np.eye(r) - w.conj() @ w.transpose(0, 2, 1)  # (I - W_x W_x^dag)^T
    tau = (v * (lam / lam.sum())) @ dagger(v)
    blocks += np.einsum("xbc,qs->xbqcs", complement, tau).reshape(blocks.shape)
    return CpMap(
        choi=_block_diagonal(blocks),
        in_dims=(n,) + out_dims[1:],
        out_dims=out_dims,
        support=np.eye(n * r, dtype=complex),
        in_labels=(register_label,) + out_labels[1:],
        out_labels=out_labels,
    )


def apply_map(cpmap: CpMap, state: DensityOperator) -> DensityOperator:
    """Apply a CP map to a state, returning a validated density operator."""
    if tuple(state.dims) != cpmap.in_dims:
        raise ValueError(
            f"state dims {state.dims} do not match map input dims {cpmap.in_dims}"
        )
    out = cpmap.apply_matrix(state.matrix)
    return DensityOperator(out, cpmap.out_dims, cpmap.out_labels)


@dataclass(frozen=True)
class CptpReport:
    """Residuals of the complete-positivity and trace-preservation checks."""

    choi_min_eigenvalue: float
    trace_preservation_defect: float
    tolerance: float

    @property
    def cp_ok(self) -> bool:
        return self.choi_min_eigenvalue >= -self.tolerance

    @property
    def tp_ok(self) -> bool:
        return self.trace_preservation_defect <= self.tolerance

    @property
    def ok(self) -> bool:
        return self.cp_ok and self.tp_ok


def verify_cptp(cpmap: CpMap) -> CptpReport:
    """Check Choi positivity and trace preservation on the map's support.

    Both are properties of the Choi matrix: for a map built from Kraus
    operators, its trace-preservation defect is the completeness defect of
    ``sum_k K_k^dag K_k`` against the support, transposed.
    """
    return CptpReport(
        choi_min_eigenvalue=float(np.linalg.eigvalsh(cpmap.choi).min()),
        trace_preservation_defect=cpmap.trace_preservation_defect(),
        tolerance=CHOI_TOL,
    )
