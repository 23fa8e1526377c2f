"""Recovery channels: Petz, rotated Petz, and the measurement-reversal map.

A completely positive map is its Choi matrix, built as ``(id (x) map)``
applied to the unnormalized maximally entangled operator with the input
system first: ``choi = sum_ij E_ij (x) map(E_ij)``.  In this convention a
map that preserves trace on a subspace with projector ``P`` satisfies
``Tr_out(choi) = P.T``.  The Choi matrix is the map: it is the one form
that is kept, checked and applied, by one contraction with an input-space
matrix (:meth:`CpMap._apply`).  Kraus operators are only an input form
(:meth:`CpMap.from_kraus`); the measurement channel is built from the
PVM's own :attr:`~eurqsi.states.Pvm.kraus`.

The rotated Petz construction averages unitary rotations by imaginary
operator powers against the density ``p(t) = (pi/2) / (cosh(pi t) + 1)``.
Its characteristic function is ``E[exp(i w t)] = w / sinh(w)``, so the
average is computed exactly in the eigenbases of the reference state and
its image (:func:`rotated_petz_map`).  Both Petz maps are read off one
congruence of the channel's Choi matrix by those eigenbases (:func:`_petz`).

The measurement-reversal map R is the rotated Petz recovery of the X
measurement N = M_X (x) id relative to the Z-pinched state tau, both with
the measured subsystem first.  :func:`eur_recovery_map` puts it first with
:func:`~eurqsi.states._measured_first`, builds N from the PVM's Kraus
operators as ``K_x (x) I`` and tau by pinching with
:func:`~eurqsi.linalg._local_stack`, and runs :func:`_petz` with one more
Choi term: the completion
``(I - P)^T (x) tau / Tr tau``, P the projector onto supp(N(tau)), which
sends the inputs R is not defined on to tau and makes the channel
trace-preserving everywhere.  The
reversibility term f of :mod:`eurqsi.relations` needs only the one state
R(sigma_XB) and evaluates it in block form, with no channel built
(:func:`~eurqsi.relations._reversibility`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (_dimensions, _local_stack, _sinhc, as_matrix, dagger, eigenvalue_below,
                     is_hermitian, support_eig)
from .states import DensityOperator, Pvm, _measured_first

CHOI_TOL = 1e-8


@dataclass(frozen=True, eq=False)
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
        in_dims = _dimensions(self.in_dims, "input dims")
        out_dims = _dimensions(self.out_dims, "output dims")
        object.__setattr__(self, "choi", choi)
        object.__setattr__(self, "in_dims", in_dims)
        object.__setattr__(self, "out_dims", out_dims)
        if not self.in_labels:
            object.__setattr__(self, "in_labels", tuple(f"in{i}" for i in range(len(in_dims))))
        if not self.out_labels:
            object.__setattr__(self, "out_labels", tuple(f"out{i}" for i in range(len(out_dims))))
        for side, dims_, labels in (("input", in_dims, self.in_labels),
                                    ("output", out_dims, self.out_labels)):
            if len(labels) != len(dims_) or len(set(labels)) != len(labels):
                raise ValueError(f"{side} labels {labels} are not {len(dims_)} distinct names")
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
        """The map of the input-space matrix ``m``; nothing is checked.

        ``sum_ij m[i, j] choi[(i, a), (j, b)]`` as one matmul of the (i j)
        and (i j, a b) layouts.
        """
        di, do = self.in_dim, self.out_dim
        j = self.choi_blocks().transpose(0, 2, 1, 3).reshape(di * di, do * do)
        return (m.reshape(1, di * di) @ j).reshape(do, do)

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


def _reference(sigma: np.ndarray, channel: CpMap) -> np.ndarray:
    """``sigma`` as a Hermitian matrix on the channel's input space.

    It is rejected as non-PSD only through :func:`~eurqsi.linalg._check_psd`
    (in :func:`~eurqsi.linalg.support_eig`, which :func:`_petz` calls).
    """
    sigma = as_matrix(sigma)
    if sigma.shape != (channel.in_dim, channel.in_dim):
        raise ValueError(f"sigma shape {sigma.shape} does not fit channel input {channel.in_dim}")
    if not is_hermitian(sigma):
        raise ValueError("sigma is not Hermitian within tolerance")
    return sigma


def petz_map(sigma: np.ndarray, channel: CpMap) -> CpMap:
    """Petz recovery of ``channel`` relative to the PSD operator ``sigma``.

    ``Y -> sigma^{1/2} N^dag(N(sigma)^{-1/2} Y N(sigma)^{-1/2}) sigma^{1/2}``,
    each power taken on its support; the map restores ``sigma`` from
    ``N(sigma)`` and is trace-preserving on supp(N(sigma)).  Its Choi matrix
    is ``U Gram(C) U^dag`` (see :func:`rotated_petz_map`).
    """
    return _petz(_reference(sigma, channel), channel, rotated=False)


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
    return _petz(_reference(sigma, channel), channel, rotated=True)


def _petz(sigma: np.ndarray, channel: CpMap, rotated: bool, complete: bool = False) -> CpMap:
    """The Petz map, or with ``rotated`` the rotated Petz map, of ``channel``
    relative to the Hermitian ``sigma``, from the channel's Choi matrix J
    alone; nothing is checked but sigma's spectrum.

    sigma is cut to its support once, and N is applied to the cut sigma, so
    the map sees one operator and preserves trace on supp(N(sigma)), with
    projector P.  With ``complete`` it also sends the complement of that
    support to sigma / Tr sigma, the Choi term ``(I - P)^T (x) sigma / Tr
    sigma``, and preserves trace everywhere.

    ``Gram(C)[(c, a), (c', a')] = sum_k C_k[a, c] conj(C_k[a', c'])`` is
    ``sqrt(l_a l_a' / (m_c m_c'))`` times the entry ``((a, c), (a', c'))``
    of the congruence ``T^dag J^T T`` with ``T = V (x) conj(W)``, since
    ``sum_k conj(K_k[x, i]) K_k[y, j] = J^T[(i, x), (j, y)]``.
    """
    lam, v = support_eig(sigma)
    sigma = (v * lam) @ dagger(v)
    mu, w = support_eig(channel._apply(sigma))
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
    choi, support = u @ kernel @ dagger(u), w @ dagger(w)
    if complete:
        eye = np.eye(len(support), dtype=complex)
        choi += np.kron((eye - support).T, sigma / lam.sum())
        support = eye
    return CpMap(
        choi=choi,
        in_dims=channel.out_dims,
        out_dims=channel.in_dims,
        support=support,
        in_labels=channel.out_labels,
        out_labels=channel.in_labels,
    )


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
    in front of the rest.  It is the rotated Petz recovery (:func:`_petz`)
    of the X measurement N = M_X (x) id relative to the Z-pinched state
    tau, both with the measured subsystem first, completed by the branch
    that routes the complement of supp(N(tau)) to tau / Tr tau, so the
    channel is trace-preserving everywhere.
    """
    m, dims, labels = _measured_first(rho_ab, measured, x_pvm, z_pvm, "eur_recovery_map needs")
    # N and tau = sum_z (Q_z (x) I) rho (Q_z (x) I), both laid out (measured, rest)
    channel = CpMap.from_kraus(np.kron(x_pvm.kraus, np.eye(math.prod(dims[1:]))), dims,
                               (len(x_pvm),) + dims[1:], in_labels=labels,
                               out_labels=(register_label,) + labels[1:])
    tau = _local_stack(m, dims, np.stack(z_pvm.projectors), [0]).sum(axis=0)
    return _petz(tau, channel, rotated=True, complete=True)


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
