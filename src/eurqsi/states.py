"""States, projective measurements, and the operations connecting them.

A :class:`DensityOperator` is a dense matrix plus an ordered list of
subsystem dimensions and labels.  A measurement writes its outcome into a
classical register, stored as one more subsystem of a block-diagonal
density operator, so the entropy code treats classical registers like any
other subsystem.  A :class:`Pvm` holds one orthonormal basis of the
measured space, each vector in the range of one projector, kept in one
form only, its range stack, and every measurement is computed from it:
``_compressed``, the operator-stack kernel
:func:`~eurqsi.linalg._local_stack` with the range isometries of one or
more PVMs, gives the state compressed to each range, and ``_measured``
traces those blocks to the stack of the diagonal blocks, which
:func:`measure` places on the diagonal and the checks use as they are.
Reductions and reorderings of a state are
:func:`~eurqsi.linalg._in_order`; no code here reshapes a matrix into
subsystem axes.

Validation happens at the boundary: :class:`DensityOperator` and
:class:`Pvm` check their invariants once, when they are constructed, and
the public functions check their arguments.  Every function that measures a
subsystem finds it with :func:`_measured_position`, the one check that each
PVM fits the subsystem's dimension; :func:`_measured_first` adds the
rank-one-Z rule and puts the subsystem first, for
:func:`~eurqsi.relations.check_bipartite` and
:func:`~eurqsi.recovery.eur_recovery_map`.  The value types hold arrays,
so they compare by identity.  A state's matrix passes
:func:`~eurqsi.linalg._check_state_matrix`, the rule that
:func:`~eurqsi.linalg.fidelity` applies to its arguments too, and then the
PSD test; a PVM's basis comes from the step that validates it.
:meth:`DensityOperator.from_vector` validates its vector and derives the
pure state's matrix from it, as :meth:`Pvm.from_basis` validates a basis
and derives the projectors, so a matrix built from a checked vector is not
checked again.  Each input keeps
the form it was validated in, for the checks to read: a pure state made
from its vector keeps the unit vector (and :meth:`DensityOperator.permute`
carries it), and a PVM sets its range stack when it is made.  Each public
operation that the checks in :mod:`eurqsi.relations` need wraps an array
kernel (``_measured``, ``_purifying_vector``); the checks call the kernels
on arrays derived from an input they validated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    HERM_TOL,
    _NEG_TOL,
    _block_diagonal,
    _check_state_matrix,
    _dimensions,
    _in_order,
    _integer_argument,
    _integers,
    _local_stack,
    apply_local,
    as_matrix,
    dagger,
    eigenvalue_below,
    support_eig,
)

PVM_TOL = 1e-10


class InvalidStateError(ValueError):
    """An operator violates a state/PVM invariant (used for exit code 3)."""


# Computational-basis kets and the Pauli X and Y eigenstates.
KET_0 = np.array([1.0, 0.0], dtype=complex)
KET_1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
KET_PLUS_Y = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
KET_MINUS_Y = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0)


def ket_bra(v: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    w = v if w is None else np.asarray(w, dtype=complex).reshape(-1)
    return np.outer(v, np.conjugate(w))


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


def bell_phi() -> np.ndarray:
    """The two-qubit state (|00> + |11>)/sqrt(2) as a vector."""
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive unit-trace matrix on a labeled tensor product of subsystems."""

    matrix: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...]
    # the unit vector of a state made by from_vector, flat; None for one
    # made from its matrix
    _vector: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        m = _check_state_matrix(self.matrix, error=InvalidStateError)
        dims, labels = _layout(self.dims, self.labels, m.shape[0])
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)
        lo = eigenvalue_below(m, _NEG_TOL)
        if lo is not None:
            raise InvalidStateError(f"density operator has eigenvalue {lo}")

    @classmethod
    def from_vector(cls, psi, dims, labels) -> "DensityOperator":
        """The pure state ``|psi><psi| / <psi|psi>``, validated as its vector.

        psi must have finite entries, not all zero, and prod(dims) of them;
        dims and labels pass the layout checks of the constructor.  psi is
        divided by its largest real or imaginary part, as doubles, before
        it is normalized, so no norm overflows or underflows.  The matrix is
        derived from the unit vector and is Hermitian, unit-trace and
        positive by construction, so it is not checked again, as
        :meth:`Pvm.from_basis` derives the projectors from a checked basis.
        The state keeps the unit vector, which
        :func:`~eurqsi.relations.check_tripartite` reads instead of the
        matrix.
        """
        parts = np.ascontiguousarray(psi, dtype=complex).reshape(-1).view(float)
        dims, labels = _layout(dims, labels, parts.size // 2)
        if not np.all(np.isfinite(parts)):
            raise InvalidStateError("state vector has non-finite entries")
        scale = np.abs(parts).max()
        if scale == 0.0:
            raise InvalidStateError("state vector is zero")
        # divided as doubles: a complex quotient by a subnormal scale overflows
        psi = (parts / scale).view(complex)
        psi /= np.linalg.norm(psi)
        return cls._pure(psi, dims, labels)

    @classmethod
    def _pure(cls, psi: np.ndarray, dims, labels) -> "DensityOperator":
        """The state of the flat unit vector ``psi`` on a checked layout,
        built with no further check."""
        state = object.__new__(cls)
        object.__setattr__(state, "matrix", ket_bra(psi))
        object.__setattr__(state, "dims", dims)
        object.__setattr__(state, "labels", labels)
        object.__setattr__(state, "_vector", psi)
        return state

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no subsystem labeled {label!r} in {self.labels}") from None

    def reduce(self, keep_labels) -> "DensityOperator":
        """Partial trace keeping the named subsystems (original order)."""
        if isinstance(keep_labels, str):
            keep_labels = [keep_labels]
        keep = sorted(self.label_index(s) for s in keep_labels)
        if len(set(keep)) != len(keep):
            raise InvalidStateError(f"{keep_labels!r} repeats a subsystem")
        m, dims = _in_order(self.matrix, self.dims, keep)
        return DensityOperator(m, dims, tuple(self.labels[i] for i in keep))

    def permute(self, label_order) -> "DensityOperator":
        """Reorder subsystems to the given label sequence.

        A state made from its vector keeps it: the result is made from the
        vector with its axes transposed, whose outer product is the
        reordered matrix entry for entry.
        """
        order = [self.label_index(s) for s in label_order]
        if sorted(order) != list(range(len(self.dims))):
            raise InvalidStateError(f"{label_order!r} is not a permutation of {self.labels}")
        labels = tuple(self.labels[i] for i in order)
        if self._vector is not None:
            psi = self._vector.reshape(self.dims).transpose(order).reshape(-1)
            return DensityOperator._pure(psi, tuple(self.dims[i] for i in order), labels)
        m, dims = _in_order(self.matrix, self.dims, order)
        return DensityOperator(m, dims, labels)

    def purity(self) -> float:
        """Tr(rho^2), the squared Frobenius norm of the Hermitian matrix."""
        return float(np.vdot(self.matrix, self.matrix).real)

    def is_pure(self) -> bool:
        return self.purity() >= 1.0 - 1e-8


@dataclass(frozen=True, eq=False)
class Pvm:
    """Orthogonal projectors summing to identity on one subsystem.

    A PVM holds its projectors and one orthonormal basis of the measured
    space, each vector in the range of one projector, both set and checked
    once, when it is made.  The basis is kept in one form only, stacked by
    outcome as the range stack ``_ranges``, which compresses a state to each
    outcome.  Everything else comes from these: the ranks, the measurement
    Kraus operators :attr:`kraus`, the compressed blocks and the
    incompatibility constant.
    """

    projectors: tuple[np.ndarray, ...]
    # the basis as bras stacked by outcome, shape (outcomes, r, d): block x
    # is the isometry R_x onto range(P_x) (R_x^dag R_x = P_x), its rows the
    # basis vectors in range(P_x), padded with zero rows to the largest rank r
    _ranges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        """Validate the projectors and find the basis in one stacked ``eigh``.

        Each P_x passes :func:`~eurqsi.linalg.is_hermitian`'s test and their
        sum is I entrywise within ``PVM_TOL``.  The eigenvectors of P_x above
        1/2 span its spectral projector Pi_x and join the basis.  With t the
        largest distance of an eigenvalue from {0, 1} plus ||P_x - P_x^dag||_F,
        ||P_x - Pi_x|| <= t, so no entry of P_x^2 - P_x exceeds t + t^2; with
        g = ||G - I||_F for the Gram matrix G of the d basis vectors, no entry
        of P_x P_y (x != y) exceeds g + 2t + t^2 <= ``PVM_TOL``.
        """
        projs = tuple(as_matrix(p) for p in self.projectors)
        if not projs:
            raise InvalidStateError("PVM needs at least one projector")
        d = projs[0].shape[0]
        if any(p.shape != (d, d) for p in projs):
            raise InvalidStateError("PVM projectors differ in dimension")
        stack = np.stack(projs)
        skew = stack - stack.conj().transpose(0, 2, 1)
        scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
        bad = np.flatnonzero(np.abs(skew).max(axis=(1, 2)) > HERM_TOL * scale)
        if bad.size:
            raise InvalidStateError(f"projector {bad[0]} is not Hermitian")
        vals, vecs = np.linalg.eigh(stack)
        t = np.abs(vals - (vals > 0.5)).max(axis=1) + np.linalg.norm(skew, axis=(1, 2))
        if (t + t ** 2).max() > PVM_TOL:
            raise InvalidStateError(f"projector {t.argmax()} is not idempotent")
        if np.abs(stack.sum(axis=0) - np.eye(d)).max() > PVM_TOL:
            raise InvalidStateError("PVM projectors do not sum to identity")
        x, j = np.nonzero(vals[:, ::-1] > 0.5)
        bras = vecs[x, :, d - 1 - j].conj()
        t = t.max()
        if len(x) != d or _gram_defect(bras) + 2 * t + t ** 2 > PVM_TOL:
            raise InvalidStateError("PVM projectors are not orthogonal")
        slot = np.arange(d) - np.searchsorted(x, x)
        ranges = np.zeros((len(projs), slot.max() + 1, d), dtype=complex)
        ranges[x, slot] = bras
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "_ranges", ranges)

    @classmethod
    def from_basis(cls, vectors) -> "Pvm":
        """Rank-one PVM from an orthonormal family of kets, kept as its basis.

        One Gram matmul validates the d kets: with g = ||G - I||_F,
        g (1 + g) <= ``PVM_TOL`` bounds every entry of P_x^2 - P_x, of
        P_x P_y (x != y) and of sum P_x - I by ``PVM_TOL``, where the
        projectors P_x = |v_x><v_x| are derived from the kets.
        """
        kets = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
        if not kets or len({len(v) for v in kets}) != 1:
            raise InvalidStateError("PVM needs kets of one dimension")
        bras = as_matrix(np.conj(kets))
        g = _gram_defect(bras)
        if bras.shape[0] != bras.shape[1] or g * (1.0 + g) > PVM_TOL:
            raise InvalidStateError(f"{len(kets)} kets with ||G - I||_F = {g:.3g} "
                                    f"are not an orthonormal basis of dimension {bras.shape[1]}")
        pvm = object.__new__(cls)
        object.__setattr__(pvm, "projectors", tuple(bras.conj()[:, :, None] * bras[:, None, :]))
        object.__setattr__(pvm, "_ranges", bras[:, None, :])
        return pvm

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def __len__(self) -> int:
        return len(self.projectors)

    def ranks(self) -> tuple[int, ...]:
        """The rank of each projector: its number of basis vectors, the
        nonzero rows of its block of ``_ranges``."""
        return tuple(np.any(self._ranges, axis=2).sum(axis=1).tolist())

    def is_rank_one(self) -> bool:
        """Whether every projector has rank one: no block has a second row,
        and the ranks, which sum to d, then count d outcomes."""
        return self._ranges.shape[1] == 1 and len(self) == self.dim

    @cached_property
    def kraus(self) -> np.ndarray:
        """Measurement Kraus operators ``|x><v|``, shape (d, outcomes, d).

        One operator per basis vector v, x its outcome, in the order of the
        nonzero rows of ``_ranges``; together they map the measured
        subsystem to the outcome register.
        """
        x, slot = np.nonzero(np.any(self._ranges, axis=2))
        kraus = np.zeros((len(x), len(self), self.dim), dtype=complex)
        kraus[np.arange(len(x)), x] = self._ranges[x, slot]
        return kraus


def _layout(dims, labels, size: int) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """``dims`` and ``labels`` as tuples, checked as the layout of a space of
    dimension ``size``: one distinct label per dim, every dim at least 1, and
    their product ``size``; a dim that is not an integer value is rejected."""
    dims = _dimensions(dims, error=InvalidStateError)
    labels = tuple(str(s) for s in labels)
    if len(dims) != len(labels):
        raise InvalidStateError("dims and labels length mismatch")
    if len(set(labels)) != len(labels):
        raise InvalidStateError(f"duplicate subsystem labels {labels}")
    if math.prod(dims) != size:
        raise InvalidStateError(f"dimension {size} does not match dims {dims}")
    return dims, labels


def _gram_defect(bras: np.ndarray) -> float:
    """Frobenius norm of G - I, G the Gram matrix of the rows of ``bras``."""
    return float(np.linalg.norm(bras @ bras.conj().T - np.eye(len(bras))))


def pauli_pvm(axis: str) -> Pvm:
    """Qubit PVM in the eigenbasis of Pauli X, Y or Z (outcome 0 = +1)."""
    basis = {
        "X": (KET_PLUS, KET_MINUS),
        "Y": (KET_PLUS_Y, KET_MINUS_Y),
        "Z": (KET_0, KET_1),
    }
    try:
        return Pvm.from_basis(basis[axis.upper()])
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


def measure(
    rho: DensityOperator, pvm: Pvm, measured: str, register_label: str
) -> DensityOperator:
    """Measure one subsystem, keeping the outcome in a classical register.

    The measured subsystem is consumed.  The result is block diagonal with
    the register as subsystem 0 and the other subsystems in their original
    order; block ``x`` is ``Tr_measured{(P_x (x) I) rho}`` (:func:`_measured`).
    """
    pos = _measured_position(rho, measured, pvm)
    m = _block_diagonal(_measured(rho.matrix, rho.dims, pvm, pos))
    dims = (len(pvm),) + rho.dims[:pos] + rho.dims[pos + 1:]
    labels = (register_label,) + rho.labels[:pos] + rho.labels[pos + 1:]
    return DensityOperator(m, dims, labels)


def _measured_position(rho: DensityOperator, label: str, *pvms: Pvm) -> int:
    """The index of the subsystem ``label`` of ``rho``, once every PVM of
    ``pvms`` acts on its dimension: the one check of a measured subsystem."""
    pos = rho.label_index(label)
    for pvm in pvms:
        if pvm.dim != rho.dims[pos]:
            raise InvalidStateError(
                f"PVM dimension {pvm.dim} != subsystem {label!r} dimension {rho.dims[pos]}"
            )
    return pos


def _measured_first(rho: DensityOperator, label: str, x_pvm: Pvm, z_pvm: Pvm, needs: str):
    """The matrix, dims and labels of ``rho`` with the subsystem ``label``
    first and the rest in order, once Z is rank one and both PVMs fit that
    subsystem (:func:`_measured_position`); ``needs`` begins the error for a
    Z that is not rank one."""
    if not z_pvm.is_rank_one():
        raise InvalidStateError(f"{needs} a rank-one Z measurement")
    pos = _measured_position(rho, label, x_pvm, z_pvm)
    order = [pos] + [i for i in range(len(rho.dims)) if i != pos]
    labels = tuple(rho.labels[i] for i in order)
    if not pos:
        return rho.matrix, rho.dims, labels
    return (*_in_order(rho.matrix, rho.dims, order), labels)


def _measured(m: np.ndarray, dims, pvm: Pvm, pos: int) -> np.ndarray:
    """The blocks behind :func:`measure`: the ``(outcomes, r, r)`` stack of
    ``Tr_pos[(P_x (x) I) m]``, the other subsystems in their original order.

    Each is block x of :func:`_compressed` traced over its range slots; for
    a rank-one PVM the two stacks are equal.
    """
    return _range_traced(_compressed(m, dims, [pvm], pos), pvm._ranges.shape[1])


def _range_traced(blocks: np.ndarray, slots: int) -> np.ndarray:
    """The stack of :func:`_measured` from a stack of :func:`_compressed`
    with ``slots`` range slots: each block traced over its slots."""
    if slots == 1:  # one slot: each block is its own trace
        return blocks
    n, s = blocks.shape[0], blocks.shape[1] // slots
    return blocks.reshape(n, slots, s, slots, s).trace(axis1=1, axis2=3)


def _compressed(m: np.ndarray, dims, pvms, pos: int) -> np.ndarray:
    """The stack of ``(R_x (x) I) m (R_x^dag (x) I)`` over the outcomes of
    each PVM of ``pvms`` in turn, R_x the padded range isometries of the
    range stack ``Pvm._ranges``: m compressed to each range(P_x) (x) rest,
    the other subsystems in order, in one
    :func:`~eurqsi.linalg._local_stack` call.

    The range stacks are padded with zero slots to the largest slot count,
    so a PVM with fewer slots has exact zeros in the padded ones: its own
    blocks are the leading corners, and tracing over every slot
    (:func:`_range_traced`) adds exact zeros.
    """
    ranges = [pvm._ranges for pvm in pvms]
    stack = np.zeros((sum(map(len, ranges)), max(r.shape[1] for r in ranges),
                      ranges[0].shape[2]), dtype=complex)
    start = 0
    for r in ranges:
        stack[start:start + len(r), :r.shape[1]] = r
        start += len(r)
    return _local_stack(m, dims, stack, [pos])


def pinch(rho: DensityOperator, pvm: Pvm, measured: str) -> DensityOperator:
    """Apply the PVM and discard the outcome: rho -> sum_z Q_z rho Q_z."""
    pos = _measured_position(rho, measured, pvm)
    out = apply_local(rho.matrix, rho.dims, pvm.projectors, [pos])
    return DensityOperator(out, rho.dims, rho.labels)


def theta_state(
    rho: DensityOperator,
    x_pvm: Pvm,
    z_pvm: Pvm,
    measured: str = "A",
    register_label: str = "X",
) -> DensityOperator:
    """Outcome statistics of an X measurement performed after a Z one.

    Requires a rank-one Z measurement.  The result has the layout of
    :func:`measure`; block ``x`` is ``sum_z <z|P_x|z> omega_z`` with
    ``omega_z = (<z| (x) I) rho (|z> (x) I)``.
    """
    if not z_pvm.is_rank_one():
        raise InvalidStateError("theta_state needs a rank-one Z measurement")
    # pinch and measure check the PVM dimensions
    return measure(pinch(rho, z_pvm, measured), x_pvm, measured, register_label)


def incompatibility_c(x_pvm: Pvm, z_pvm: Pvm) -> float:
    """c = max over outcome pairs of ||P_x Q_z||^2 = ||R_x R_z^dag||^2.

    One overlap matmul of the two bases gives every block R_x R_z^dag,
    padded to the largest ranks.  When both PVMs have one range slot, as
    rank-one PVMs do, each block is the one entry <x|z>, so
    c = max |<x|z>|^2 is read off the overlap.  A block
    with one row or one column has its norm as its one singular value;
    larger blocks take their top singular value.
    """
    if x_pvm.dim != z_pvm.dim:
        raise InvalidStateError("PVMs act on different dimensions")
    (nx, rx, d), (nz, rz, _) = x_pvm._ranges.shape, z_pvm._ranges.shape
    overlap = x_pvm._ranges.reshape(nx * rx, d) @ z_pvm._ranges.reshape(nz * rz, d).conj().T
    if rx == rz == 1:
        return min(float((overlap.real ** 2 + overlap.imag ** 2).max()), 1.0)
    blocks = overlap.reshape(nx, rx, nz, rz).transpose(0, 2, 1, 3)
    if min(rx, rz) == 1:
        squares = (blocks.real ** 2 + blocks.imag ** 2).sum(axis=(-2, -1))
    else:
        squares = np.linalg.svd(blocks, compute_uv=False)[..., 0] ** 2
    return min(float(squares.max()), 1.0)


def purify(rho: DensityOperator, purifier_label: str = "R") -> DensityOperator:
    """Pure state on a doubled space whose reduction returns ``rho``.

    The purifying subsystem is appended last and its dimension equals the
    rank of the input.
    """
    _check_free_label(rho, purifier_label)
    psi = _purifying_vector(support_eig(rho.matrix), rho.dims)
    return DensityOperator.from_vector(psi, psi.shape, rho.labels + (purifier_label,))


def _check_free_label(rho: DensityOperator, label: str) -> None:
    if label in rho.labels:
        raise InvalidStateError(f"label {label!r} already in use")


def _purifying_vector(rho_eig, dims) -> np.ndarray:
    """Normalized ``sum_k sqrt(l_k) |v_k> (x) |k>`` over the support pair
    ``rho_eig`` = (l, v) of :func:`~eurqsi.linalg.support_eig`, shaped
    ``dims + (rank,)``."""
    vals, vecs = rho_eig
    psi = (vecs * np.sqrt(vals)).reshape(-1)
    psi /= np.linalg.norm(psi)
    return psi.reshape(tuple(dims) + (len(vals),))


def random_state(dim: int, rank: int, seed, label: str = "A") -> DensityOperator:
    """Random state from partial trace of a Gaussian pure state on dim x rank;
    ``dim`` must be a positive integer."""
    dim = _integer_argument("dim", dim, 1, np.inf, "a positive integer")
    return random_multipartite_state((dim,), rank, seed, (label,))


def random_multipartite_state(dims, rank: int, seed, labels) -> DensityOperator:
    """Random state on an explicit subsystem layout: G G^dag / Tr(G G^dag)
    for a complex Gaussian G with prod(dims) rows and ``rank`` columns; a
    dim that is not a positive integer value, or a rank that is not an
    integer in [1, prod(dims)], is rejected before anything is drawn."""
    dims = _dimensions(dims, error=InvalidStateError)
    dim = math.prod(dims)
    rank = _integer_argument("rank", rank, 1, dim, f"an integer in [1, {dim}]")
    return DensityOperator(_random_density_matrix(dim, rank, seed), dims, tuple(labels))


def _random_density_matrix(dim: int, rank: int, seed) -> np.ndarray:
    """The matrix of :func:`random_multipartite_state` for ``dim`` rows and
    ``rank`` columns, on arguments it does not check: G G^dag / Tr(G G^dag)
    is a density matrix by construction, so it is not validated here."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ dagger(g)
    m /= np.trace(m).real
    return m


def random_pvm(dim: int, seed) -> Pvm:
    """Haar-random rank-one PVM from QR of a Gaussian matrix; ``dim`` must
    be a positive integer."""
    dim = _integer_argument("dim", dim, 1, np.inf, "a positive integer")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return Pvm.from_basis([q[:, k] for k in range(dim)])


def random_pure_state(dims, seed, labels) -> DensityOperator:
    """Haar-random pure state on the given subsystem layout; a dim that is
    not an integer value is rejected."""
    dims = _integers(dims, "subsystem dimensions", InvalidStateError)
    full = math.prod(dims)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=full) + 1j * rng.normal(size=full)
    return DensityOperator.from_vector(psi, dims, tuple(labels))
