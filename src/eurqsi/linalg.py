"""Dense complex linear algebra for small multipartite operators.

Everything here works on plain ``numpy`` complex matrices.  Subsystem
ordering is fixed package-wide: subsystem 0 is the slowest-varying tensor
factor, i.e. ``tensor(a, b)`` puts ``a`` on subsystem 0.

Three kernels are the only code in the package that lays a matrix out on
its subsystem axes.  :func:`_in_order` traces out the subsystems not listed
and puts the kept ones in the order listed; :func:`_local_stack` applies a
stack of operators to the listed subsystems and returns the unsummed
stack, those subsystems first; :func:`_local_operators` writes that stack
out as operators on the whole space, for a layout that is fixed in
advance.  :func:`partial_trace` and :func:`apply_local` are the checked
public forms of the first two, and every reduction, reordering,
measurement compression and Kraus step elsewhere calls one of the three.

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

# Types equal to 0 and 1 that _integers still refuses as integers.
_BOOLS = frozenset((bool, np.bool_))


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex ndarray, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only, for an array built once and shared."""
    a.flags.writeable = False
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


def _on_support(vals: np.ndarray, top=None) -> np.ndarray:
    """Mask of the eigenvalues that count as support: above ``EPS_SUPP``
    times the largest, or times ``top``, the top of each one's own spectrum
    broadcast against ``vals``.  This is the one support cutoff of the
    package; it is signed, so round-off negative eigenvalues never enter."""
    return vals > EPS_SUPP * (vals.max(initial=0.0) if top is None else top)


def _check_psd(lo, top) -> None:
    """Raise on a spectrum that a state may not have: one whose lowest
    eigenvalue ``lo`` is below ``-_NEG_TOL * max(1, top)``, ``top`` its
    highest."""
    if lo < 0.0 and lo < -_NEG_TOL * max(1.0, top):
        raise ValueError("matrix has negative eigenvalues beyond tolerance")


def support_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues on the support, as :func:`_on_support` selects them, and
    their eigenvectors, descending.

    ``m`` is a nonempty Hermitian ndarray its caller validated or built;
    only its spectrum is checked, by :func:`_check_psd` before the cut.
    ``eigh``'s spectrum is ascending, so both decisions read its two ends:
    the guard takes them as its lowest and highest eigenvalue, and the cut
    keeps a top segment, the whole spectrum when its lowest eigenvalue is
    on the support.  The pair is that segment sliced in reverse, a view of
    the ``eigh`` output.
    """
    vals, vecs = np.linalg.eigh(m)
    lo, top = vals[0], vals[-1]
    _check_psd(lo, top)
    kept = len(vals) if _on_support(lo, top) else np.count_nonzero(_on_support(vals, top))
    return vals[:-1 - kept:-1], vecs[:, :-1 - kept:-1]


def eigenvalue_below(m: np.ndarray, tol: float) -> float | None:
    """Smallest eigenvalue of Hermitian ``m`` if it is below ``-tol``, else None.

    A Cholesky factorization of ``m + tol*I`` accepts at about a third of
    the cost of ``eigvalsh``; when it fails, ``eigvalsh`` decides exactly.
    ``tol`` is added to the diagonal of a copy of ``m``: the bits of
    ``m + tol * np.eye(n)``, up to the sign of a zero off the diagonal,
    without building the identity.
    """
    shifted = m.copy()
    shifted.reshape(-1)[:: m.shape[0] + 1] += tol
    try:
        np.linalg.cholesky(shifted)
        return None
    except np.linalg.LinAlgError:
        lo = float(np.linalg.eigvalsh(m).min())
        return lo if lo < -tol else None


def _integers(values, what: str, error=ValueError) -> tuple[int, ...]:
    """``values`` as a tuple of ints; ``error`` names ``what`` when one of
    them is not an integer value.  numpy integers and integral floats pass,
    but 2.5 is rejected, not truncated to 2, and a bool, Python's or
    numpy's, is rejected, not read as 0 or 1."""
    values = tuple(values)
    try:
        ints = tuple(map(int, values))
    except (OverflowError, ValueError):
        ints = None
    if ints != values or not _BOOLS.isdisjoint(map(type, values)):
        raise error(f"{what} must be integers, got {values}")
    return ints


def _integer_argument(name: str, value, low: int, high: float, what: str) -> int:
    """``value`` as an int, or ``ValueError`` naming the argument when it is
    not an integer (bools excluded) in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or not low <= value <= high:
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return int(value)


def _dimensions(dims, what: str = "subsystem dimensions", error=ValueError) -> tuple[int, ...]:
    """``dims`` as a tuple of ints; ``error`` names ``what`` when one of
    them is not an integer value, as :func:`_integers` decides, or is below 1."""
    dims = _integers(dims, what, error)
    if any(d < 1 for d in dims):
        raise error(f"{what} must be positive, got {dims}")
    return dims


def _on_subsystems(m, dims, indices, what: str):
    """``m`` as a square matrix on ``dims`` and ``indices`` as distinct
    subsystems of it, checked for the public function ``what``."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} needs a square matrix")
    dims = _dimensions(dims)
    if math.prod(dims) != m.shape[0]:
        raise ValueError(f"product of dims {dims} != matrix dimension {m.shape[0]}")
    indices = list(_integers(indices, "subsystem indices"))
    if len(set(indices)) != len(indices) or any(i < 0 or i >= len(dims) for i in indices):
        raise ValueError(f"subsystems {indices} repeat or are out of range for {len(dims)}")
    return m, dims, indices


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace the square matrix ``m`` on subsystems ``dims`` over every
    subsystem not listed in ``keep``; the kept ones stay in their order."""
    m, dims, keep = _on_subsystems(m, dims, sorted(set(keep)), "partial_trace")
    return _in_order(m, dims, keep)[0]


def apply_local(m: np.ndarray, dims, kraus, positions) -> np.ndarray:
    """Apply ``m -> sum_k K_k m K_k^dag`` to the subsystems ``positions``.

    Each Kraus operator acts on the tensor product of the listed subsystems
    in the order listed (any order, not necessarily contiguous); every
    subsystem keeps its place.  The operators must be square, except with a
    single position: a ``(d_out, d_in)`` operator then changes that
    subsystem's dimension to ``d_out``, and ``d_out = 1`` contracts it away
    as ``<v| . |v>``.
    """
    m, dims, positions = _on_subsystems(m, dims, positions, "apply_local")
    ks = np.asarray(kraus, dtype=complex)
    d_in = math.prod(dims[p] for p in positions)
    if ks.ndim != 3 or ks.shape[2] != d_in or (len(positions) != 1 and ks.shape[1] != d_in):
        raise ValueError(f"Kraus shape {ks.shape[1:]} does not fit positions {positions}")
    order = positions + [i for i in range(len(dims)) if i not in positions]
    out_dims = [ks.shape[1]] if len(positions) == 1 else [dims[p] for p in positions]
    out_dims += [dims[i] for i in order[len(positions):]]
    # the summed stack has its subsystems in ``order``: put each back in its place
    out = _local_stack(m, dims, ks, positions).sum(axis=0)
    return _in_order(out, out_dims, [order.index(i) for i in range(len(dims))])[0]


def _in_order(m: np.ndarray, dims, order) -> tuple[np.ndarray, tuple[int, ...]]:
    """``m`` on subsystems ``dims`` reduced to the subsystems ``order``, put
    in that order, and its dims; nothing is checked.

    One ``einsum``: the row and column axes of each subsystem not in
    ``order`` share a label, which traces it out.
    """
    n = len(dims)
    col = [n + i if i in order else i for i in range(n)]
    kept = tuple(dims[i] for i in order)
    d = math.prod(kept)
    t = np.einsum(m.reshape(tuple(dims) * 2), list(range(n)) + col,
                  list(order) + [n + i for i in order])
    return t.reshape(d, d), kept


def _local_stack(m: np.ndarray, dims, ops: np.ndarray, positions) -> np.ndarray:
    """The unsummed stack ``(K_k (x) I) m (K_k^dag (x) I)`` of the
    ``(k, d_out, d_in)`` operators ``ops`` on the subsystems ``positions``,
    in the order listed; nothing is checked.  The listed subsystems come
    first, as one factor of dimension d_out, and the rest follow in order.

    ``m`` is laid out once with rows ordered (positions, rest) and columns
    (rest, positions), so that both actions are plain matmuls on a
    contiguous axis; the stack is put back in row order at the end.
    """
    n = len(dims)
    k, d_out, d_in = ops.shape
    rest = [i for i in range(n) if i not in positions]
    r = m.shape[0] // d_in
    axes = list(positions) + rest + [n + i for i in rest] + [n + i for i in positions]
    t = m.reshape(tuple(dims) * 2).transpose(axes).reshape(d_in, r * r * d_in)
    t = (ops.reshape(k * d_out, d_in) @ t).reshape(k, d_out * r * r, d_in)
    t = (t @ ops.conj().transpose(0, 2, 1)).reshape(k, d_out, r, r, d_out)
    return t.transpose(0, 1, 2, 4, 3).reshape(k, d_out * r, d_out * r)


def _local_operators(dims, ops: np.ndarray, positions) -> np.ndarray:
    """The ``(k, d_out r, d)`` operators ``O_k`` on the whole space of
    ``dims`` with ``O_k m O_k^dag`` the k-th matrix of
    :func:`_local_stack` of ``m``: ``K_k (x) I`` after the permutation that
    brings ``positions`` to the front; nothing is checked.

    Each entry of ``O_k`` is an entry of ``K_k`` or zero, exactly.
    """
    n = len(dims)
    k, d_out, d_in = ops.shape
    rest = [i for i in range(n) if i not in positions]
    d = math.prod(dims)
    perm = np.eye(d).reshape(tuple(dims) + (d,)).transpose(list(positions) + rest + [n])
    return (ops.reshape(k * d_out, d_in) @ perm.reshape(d_in, -1)).reshape(k, -1, d)


def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """The ``(n s, n s)`` matrix with the ``(n, s, s)`` stack ``blocks`` on
    its diagonal."""
    n, s = blocks.shape[:2]
    out = np.zeros((n, s, n, s), dtype=complex)
    out[np.arange(n), :, np.arange(n), :] = blocks
    return out.reshape(n * s, n * s)


def _sinhc(x: np.ndarray) -> np.ndarray:
    """``x / sinh(x)`` with the removable singularity at 0 filled by 1.

    It is the characteristic function of the rotated Petz density
    ``p(t) = (pi/2) / (cosh(pi t) + 1)``.  The quotient is taken only where
    x is nonzero, into an array of ones, so 0/0 is never formed; elsewhere
    it is ``x / sinh(x)`` as computed.
    """
    return np.divide(x, np.sinh(x), out=np.ones_like(x), where=x != 0.0)


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


def _check_state_matrix(m, what: str = "density operator", error=ValueError) -> np.ndarray:
    """``m`` as a matrix, once it is known to be what a state's matrix is
    apart from its spectrum: square, Hermitian within ``HERM_TOL`` and of
    unit trace within 1e-8; ``error`` names ``what`` when it is not.  Each
    caller checks the spectrum its own way."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise error(f"{what} has shape {m.shape}, which is not square")
    if not is_hermitian(m):
        raise error(f"{what} is not Hermitian")
    tr = float(m.trace().real)
    if abs(tr - 1.0) > 1e-8:
        raise error(f"{what} has trace {tr}")
    return m


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
