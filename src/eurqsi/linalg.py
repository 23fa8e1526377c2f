"""Dense complex linear algebra for small multipartite operators.

Everything here works on plain ``numpy`` complex matrices.  Subsystem
ordering is fixed package-wide: subsystem 0 is the slowest-varying tensor
factor, i.e. ``tensor(a, b)`` puts ``a`` on subsystem 0.

Every support and negativity decision on a spectrum is made here, once:
:func:`_on_support` is the one support cutoff (an eigenvalue above
``EPS_SUPP`` times the largest, signed), and :func:`_check_psd` is the one
guard that rejects an eigenvalue below ``-_NEG_TOL * max(1, top)``, where
:class:`~eurqsi.states.DensityOperator` rejects a state.
:func:`support_eig` applies both, and its support pairs are the factored
form in which :func:`_fidelity` takes both of its arguments.
"""

from __future__ import annotations

import math

import numpy as np

# Relative cutoff separating genuine zero eigenvalues of rank-deficient
# states from round-off.
EPS_SUPP = 1e-10

HERM_TOL = 1e-10

# Most negative eigenvalue, relative to max(1, top), that a state may have:
# DensityOperator rejects below it, and no function raises above it.
_NEG_TOL = 1e-8

# Band by which a computed fidelity may leave [0, 1] before it is an error.
_FIDELITY_GUARD = 1e-9


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex ndarray, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conjugate(m.T)


def tensor(*factors) -> np.ndarray:
    """Kronecker product of one or more matrices, first factor slowest."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = as_matrix(factors[0])
    for f in factors[1:]:
        out = np.kron(out, as_matrix(f))
    return out


def is_hermitian(m: np.ndarray) -> bool:
    """Hermiticity within ``HERM_TOL`` relative to the largest entry.

    ``m`` must already be a 2-D ndarray, as :func:`as_matrix` returns.
    """
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    return bool(np.abs(m - dagger(m)).max(initial=0.0) <= HERM_TOL * scale)


def herm_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a Hermitian matrix, descending, and the matching
    orthonormal eigenvector columns."""
    m = as_matrix(m)
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1], vecs[:, ::-1]


def _on_support(vals: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues that count as support: above ``EPS_SUPP``
    times the largest.  This is the one support cutoff of the package; it is
    signed, so round-off negative eigenvalues never enter."""
    return vals > EPS_SUPP * vals.max(initial=0.0)


def _check_psd(vals: np.ndarray) -> None:
    """Raise on an eigenvalue that a state may not have: one below
    ``-_NEG_TOL * max(1, top)``."""
    lo = vals.min(initial=0.0)
    if lo < 0.0 and lo < -_NEG_TOL * max(1.0, float(vals.max(initial=0.0))):
        raise ValueError("matrix has negative eigenvalues beyond tolerance")


def support_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues on the support, as :func:`_on_support` selects them, and
    their eigenvectors, descending.

    ``m`` is a Hermitian ndarray its caller validated or built; only its
    full spectrum is checked, by :func:`_check_psd` before the cut.
    """
    vals, vecs = np.linalg.eigh(m)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    _check_psd(vals)
    keep = _on_support(vals)
    return vals[keep], vecs[:, keep]


def eigenvalue_below(m: np.ndarray, tol: float) -> float | None:
    """Smallest eigenvalue of Hermitian ``m`` if it is below ``-tol``, else None.

    A Cholesky factorization of ``m + tol*I`` accepts at about a third of
    the cost of ``eigvalsh``; when it fails, ``eigvalsh`` decides exactly.
    """
    try:
        np.linalg.cholesky(m + tol * np.eye(m.shape[0]))
        return None
    except np.linalg.LinAlgError:
        lo = float(np.linalg.eigvalsh(m).min())
        return lo if lo < -tol else None


def _subsystem_axes(dims, total_dim: int):
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    if math.prod(dims) != total_dim:
        raise ValueError(f"product of dims {dims} != matrix dimension {total_dim}")
    return dims


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    Parameters
    ----------
    m : square matrix on the tensor product of ``dims``
    dims : dimension of each subsystem, subsystem 0 slowest-varying
    keep : iterable of subsystem indices to retain (original order kept)
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("partial_trace needs a square matrix")
    dims = _subsystem_axes(dims, m.shape[0])
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")

    t = m.reshape(dims + dims)
    # Row axis i and column axis n+i of each traced subsystem share a label.
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out_axes = [i for i in keep] + [n + i for i in keep]
    kept_dim = math.prod(dims[i] for i in keep)
    reduced = np.einsum(t, row + col, out_axes)
    return reduced.reshape(kept_dim, kept_dim)


def apply_local(m: np.ndarray, dims, kraus, positions) -> np.ndarray:
    """Apply ``m -> sum_k K_k m K_k^dag`` to the subsystems ``positions``.

    Each Kraus operator acts on the tensor product of the listed subsystems
    in the order listed (any order, not necessarily contiguous); every
    subsystem keeps its place.  The operators must be square, except with a
    single position: a ``(d_out, d_in)`` operator then changes that
    subsystem's dimension to ``d_out``, and ``d_out = 1`` contracts it away
    as ``<v| . |v>``.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("apply_local needs a square matrix")
    dims = _subsystem_axes(dims, m.shape[0])
    n = len(dims)
    positions = [int(p) for p in positions]
    if len(set(positions)) != len(positions) or any(p < 0 or p >= n for p in positions):
        raise ValueError(f"positions {positions} repeat or fall outside {n} subsystems")
    ks = np.asarray(kraus, dtype=complex)
    d_in = math.prod(dims[p] for p in positions)
    if ks.ndim != 3 or ks.shape[2] != d_in or (len(positions) != 1 and ks.shape[1] != d_in):
        raise ValueError(f"Kraus shape {ks.shape[1:]} does not fit positions {positions}")
    d_out = ks.shape[1]
    rest = [i for i in range(n) if i not in positions]
    rest_dim = m.shape[0] // d_in
    # Rows ordered (positions, rest) and columns (rest, positions), so that
    # both Kraus actions are plain batched matmuls on a contiguous axis.
    axes = positions + rest + [n + i for i in rest] + [n + i for i in positions]
    t = m.reshape(dims + dims).transpose(axes).reshape(d_in, rest_dim * rest_dim * d_in)
    t = (ks @ t).reshape(len(ks), d_out * rest_dim * rest_dim, d_in)
    t = (t @ ks.conj().transpose(0, 2, 1)).sum(axis=0)
    out_dims = list(dims)
    if len(positions) == 1:
        out_dims[positions[0]] = d_out
    pos_dims = [out_dims[p] for p in positions]
    rest_dims = [dims[i] for i in rest]
    t = t.reshape(pos_dims + rest_dims + rest_dims + pos_dims)
    d = d_out * rest_dim
    return t.transpose(sorted(range(len(axes)), key=axes.__getitem__)).reshape(d, d)


def _sinhc(x: np.ndarray) -> np.ndarray:
    """``x / sinh(x)`` with the removable singularity at 0 filled by 1.

    It is the characteristic function of the rotated Petz density
    ``p(t) = (pi/2) / (cosh(pi t) + 1)``.
    """
    with np.errstate(invalid="ignore"):
        return np.where(x == 0.0, 1.0, x / np.sinh(x))


def op_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of ``a - b``."""
    d = as_matrix(a) - as_matrix(b)
    sv = np.linalg.svd(d, compute_uv=False)
    return 0.5 * float(sv.sum())


def _check_state_matrix(rho: np.ndarray, what: str) -> np.ndarray:
    rho = as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{what} must be square")
    if not is_hermitian(rho):
        raise ValueError(f"{what} is not Hermitian within tolerance")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"{what} has trace {tr}, expected 1")
    return rho


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity: squared trace norm of ``sqrt(rho) sqrt(sigma)``.

    Both arguments must be Hermitian with unit trace and pass
    :func:`_check_psd`; :func:`_fidelity` computes the value from their
    support pairs.
    """
    rho = _check_state_matrix(rho, "fidelity argument")
    sigma = _check_state_matrix(sigma, "fidelity argument")
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    return _fidelity(support_eig(rho), support_eig(sigma))


def _fidelity(rho_eig: tuple[np.ndarray, np.ndarray],
              sigma_eig: tuple[np.ndarray, np.ndarray]) -> float:
    """The spectral part of :func:`fidelity`, on support pairs it does not check.

    ``rho_eig`` = (l, U) and ``sigma_eig`` = (m, W) are :func:`support_eig`
    pairs, or any eigenpairs with orthonormal vectors.  ``sqrt(rho)
    sqrt(sigma)`` has the singular values of ``(U sqrt(l))^dag (W sqrt(m))``,
    so F = (their sum)^2 / (sum(l) sum(m)) takes no square root of a small
    eigenvalue of a product and cuts none.  It is clipped to 1 after a guard
    band of ``_FIDELITY_GUARD``.
    """
    lam, u = rho_eig
    mu, w = sigma_eig
    overlap = dagger(u * np.sqrt(lam)) @ (w * np.sqrt(mu))
    f = float(np.linalg.svd(overlap, compute_uv=False).sum() ** 2 / (lam.sum() * mu.sum()))
    if f > 1.0 + _FIDELITY_GUARD:
        raise ValueError(f"fidelity {f} outside [0, 1] beyond guard band")
    return min(f, 1.0)
