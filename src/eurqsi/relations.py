"""End-to-end checkers for the four uncertainty relations.

One kernel, two reports.  For a pure psi_ABE the bipartite and the
tripartite relation are built from the same six scalars (Coles et al.,
PRL 108, 210405): H(X|B), H(Z|B), H(Z|E), H(A|B), the incompatibility
constant c and the reversibility term f.  :func:`_scalars` computes them
from rho_AB and a factor G of it, rho_AB = G G^dag, which is a purification
psi_ABE read as a (AB, E) matrix; an :class:`EurReport` holds them and
derives the inequality of its relation.

Each check validates once, at entry: the input state (validated when it was
constructed), the labels, the rank-one guard and the PVM dimensions, with
:func:`~eurqsi.states._measured_first` (bipartite) or
:func:`~eurqsi.states._measured_position` (tripartite).  It
then hands plain arrays to the kernel, with the measured subsystem first:
rho_AB, its :func:`~eurqsi.linalg.support_eig` pair and G.
:func:`check_tripartite` takes G from the vector its pure input was made
from, with its axes put in the order (A, B, E), and sums rho_AB from G's
columns; a pure input given as a matrix gives its column of largest
diagonal entry, normalized, as the vector, with no eigensolve.
:func:`check_bipartite` and :func:`fuzz` go through
:func:`_bipartite_scalars`, whose G is rho_AB's purifying vector.  The
kernel compresses A of G to Z's ranges and contracts B, which gives the
stack of the Z-measured AE marginal, so neither the pure state on ABE nor
its AE marginal is formed as a matrix.  The kernel constructs no state and
no map.  Every entropy it takes is that of a classical-quantum state, held
as the stack of its blocks that :func:`~eurqsi.states._range_traced` returns:
rho_B and rho_E are the sums of those blocks.  rho_AB is compressed to each
range of X and of Z in one call (:func:`~eurqsi.states._compressed`), and
the X and Z stacks are those blocks traced over the range slots.  One
``eigh`` takes the AB stack (rho_B, the X stack, the Z stack), one
``eigvalsh`` the ZE stack and rho_E, and one
:func:`~eurqsi.entropy._entropies` pass reduces the six spectra, rho_AB's
among them.  For Z with one range slot the Z stack is Z's range blocks
themselves, and their eigenpairs from the AB stack give f the Z-pinched
state; a coarser Z decomposes its blocks once more.  c comes from the
overlap of the two PVMs' bases.  f evaluates R(sigma_XB) from the X
stack in block form (:func:`_reversibility`, where the block form is
derived); R is the channel that :func:`~eurqsi.recovery.eur_recovery_map`
builds, but no channel is built here, and nothing is imported from
:mod:`eurqsi.recovery`.  rho_AB's support pair is its factor in f, which
takes R(sigma_XB) factored too.  A check takes 5 eigensolves and 1 SVD for
a Z with one range slot, 6 and 1 otherwise.  H(Z|E) stays an explicit entropy
of the measured AE marginal, never derived from H(AB) through the duality,
so the two remain independent cross-checks.

Entropy terms are eigenvalue-exact (1e-9); by default the refined
inequality counts as violated when its slack is below -1e-6, and the report
carries both tolerances.  A violation is data: a report with negative slack
is built like any other, and only the command line turns it into exit 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .entropy import _entropies
from .linalg import _fidelity, _integer_argument, _integers, _on_support, _sinhc, support_eig
from .serialize import scenario_to_dict
from .states import (
    DensityOperator,
    InvalidStateError,
    Pvm,
    _compressed,
    _measured_first,
    _measured_position,
    _purifying_vector,
    _random_density_matrix,
    _range_traced,
    incompatibility_c,
    pauli_pvm,
    random_pvm,
)

ENTROPY_TOL = 1e-9
FIDELITY_TOL = 1e-6

RELATION_IDS = ("tripartite", "tripartite_refined", "bipartite", "bipartite_refined")


@dataclass(frozen=True)
class EurReport:
    """One uncertainty-relation check (bits): the six scalars and the
    inequality of ``relation_id`` derived from them.

    Bipartite: H(Z|B) + H(X|B) >= -log c + H(A|B).  Tripartite:
    H(Z|E) + H(X|B) >= -log c.  The refinement subtracts log f from each
    right-hand side, so it can never loosen exactly when f <= 1.  A negative
    slack is a violation the report carries, not an error.
    """

    relation_id: str
    h_xb: float
    h_zb: float
    h_ze: float
    h_ab: float
    c: float
    f: float
    lhs: float = field(init=False)
    rhs_original: float = field(init=False)
    rhs_refined: float = field(init=False)
    slack_original: float = field(init=False)
    slack_refined: float = field(init=False)
    entropy_tolerance: ClassVar[float] = ENTROPY_TOL
    fidelity_tolerance: ClassVar[float] = FIDELITY_TOL

    def __post_init__(self):
        if self.relation_id not in RELATION_IDS:
            raise ValueError(f"unknown relation_id {self.relation_id!r}")
        if not 0.0 <= self.f <= 1.0:
            raise ValueError(f"f = {self.f!r} outside [0, 1]: the refinement would loosen")
        rhs_original, rhs_refined = -np.log2(self.c), -np.log2(self.c) - np.log2(self.f)
        if self.relation_id.startswith("bipartite"):
            lhs = self.h_zb + self.h_xb
            rhs_original, rhs_refined = rhs_original + self.h_ab, rhs_refined + self.h_ab
        else:
            lhs = self.h_ze + self.h_xb
        derived = dict(lhs=lhs, rhs_original=rhs_original, rhs_refined=rhs_refined,
                       slack_original=lhs - rhs_original, slack_refined=lhs - rhs_refined)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        return {
            "relation_id": self.relation_id,
            "H_XB": float(self.h_xb),
            "H_ZB": float(self.h_zb),
            "H_ZE": float(self.h_ze),
            "H_AB": float(self.h_ab),
            "c": float(self.c),
            "f": float(self.f),
            "lhs": float(self.lhs),
            "rhs_original": float(self.rhs_original),
            "rhs_refined": float(self.rhs_refined),
            "slack_original": float(self.slack_original),
            "slack_refined": float(self.slack_refined),
            "entropy_tolerance": float(self.entropy_tolerance),
            "fidelity_tolerance": float(self.fidelity_tolerance),
        }

    def table(self) -> str:
        rows = [
            ("relation", self.relation_id),
            ("H(X|B)", f"{self.h_xb:+.9f}"),
            ("H(Z|B)", f"{self.h_zb:+.9f}"),
            ("H(Z|E)", f"{self.h_ze:+.9f}"),
            ("H(A|B)", f"{self.h_ab:+.9f}"),
            ("c", f"{self.c:.12f}"),
            ("-log2 c", f"{-np.log2(self.c):+.9f}"),
            ("f", f"{self.f:.9f}"),
            ("-log2 f", f"{-np.log2(self.f):+.9f}"),
            ("lhs", f"{self.lhs:+.9f}"),
            ("rhs (original)", f"{self.rhs_original:+.9f}"),
            ("rhs (refined)", f"{self.rhs_refined:+.9f}"),
            ("slack (original)", f"{self.slack_original:+.9f}"),
            ("slack (refined)", f"{self.slack_refined:+.9f}"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def _reversibility(
    z_eig: tuple[np.ndarray, np.ndarray],
    x_pvm: Pvm,
    z_pvm: Pvm,
    sigma_x: np.ndarray,
    rho_eig: tuple[np.ndarray, np.ndarray],
) -> float:
    """f = F(rho_AB, R(sigma_XB)) with R the rotated Petz recovery of the X
    measurement N = M_X (x) id relative to the Z-pinched state tau
    (:func:`~eurqsi.recovery.rotated_petz_map`), evaluated in block form
    with no recovery channel built.

    rho_AB has the measured subsystem A first and B the rest, a layout tau
    and R(sigma_XB) keep.  ``z_eig`` is the batched ``eigh`` of its
    compression to each range of Z, ``(R_z (x) I) rho (R_z^dag (x) I)``
    (:func:`~eurqsi.states._compressed`), on Z's own range slots: tau is
    block diagonal in Z's basis with these blocks, so this is its spectrum,
    and each eigenvector maps back through ``R_z^dag (x) I``.  tau is cut
    to its support once, against the top of the union of the block
    spectra: ``tau = sum_a l_a |a><a|`` (eigenvectors V).  N(tau) is the
    direct sum over the outcomes x of the blocks
    ``tau_x = Tr_A[(P_x (x) I) tau] = sum_j m_xj |w_xj><w_xj|``,
    formed from the cut eigenpairs and cut by the same rule against the top
    of the union of their spectra.  Off that support the eigenvalues are
    set to 1, which keeps the logs finite, and the eigenvectors to zero,
    which drops their terms.  The Choi matrix of R then vanishes between
    different outcomes, and its block x is

        sum_{a j a' j'} |w*_xj><w*_xj'| (x) sqrt(l_a l_a' / (m_xj m_xj'))
                        K[x, a, j, a', j'] |a><a'|

    with ``K = Gram o sinhc``: ``Gram[x, a, j, a', j'] = sum_v <a|v (x) w_xj>
    <v (x) w_xj'|a'>`` over the Kraus operators |x><v| of outcome x, and
    ``sinhc(phi_a,xj - phi_a',xj')`` with ``phi_a,xj = (ln l_a - ln m_xj) / 2``.
    The square root folds into the Gram factor once, as the weight of
    ``h[x, j, k, a] = sqrt(l_a / m_xj) <x_k (x) w_xj|a>`` over the basis
    vectors x_k of outcome x, so that ``G[x, j, j', a, a'] = sum_k
    conj(h[x, j, k, a]) h[x, j', k, a']`` is the whole weighted Gram factor.
    sigma_XB is the direct sum of its blocks sigma_x, the stack ``sigma_x``
    that :func:`~eurqsi.states._range_traced` returns, so

        R(sigma)_aa' = sum_x sum_jj' (G o sinhc)[x, j, j', a, a'] M_x[j, j']

    with ``M_x = W_x^dag sigma_x W_x``, undivided: with (x, j, j') leading,
    the sum is the vector M times G o sinhc read as a matrix with rows
    (x, j, j').  R(sigma_XB) = V r V^dag reaches the fidelity factored: the
    support pair (m, Q) of the matrix r, which is the size of tau's rank,
    with vectors V Q; ``rho_eig``, rho_AB's
    :func:`~eurqsi.linalg.support_eig` pair, is the other factor.

    No completion is needed: the pinching inequality puts supp(sigma_XB)
    inside the support of the doubly measured state, where R is defined.
    """
    z_ranges, x_ranges = z_pvm._ranges, x_pvm._ranges
    (n_z, r_z, d_a), (n_x, r_x, _) = z_ranges.shape, x_ranges.shape
    vals, vecs = z_eig
    d_b = vals.shape[1] // r_z
    keep = _on_support(vals)
    lam = vals[keep]
    # V[(i, b), (z, s)] = sum_j conj(R_z[j, i]) u_zs[j, b], the kept columns
    v = z_ranges.conj().transpose(0, 2, 1) @ vecs.reshape(n_z, r_z, -1)
    v = v.reshape(n_z, d_a * d_b, -1).transpose(1, 0, 2)[:, keep]
    # y[x, b, k, a] = (<x_k| (x) I)|a>; with (k, a) read as one axis, the
    # blocks of N(tau) are y l y^dag, l broadcast over the slots k
    y = (x_ranges.reshape(-1, d_a) @ v.reshape(d_a, -1)).reshape(n_x, r_x, d_b, -1)
    y = y.transpose(0, 2, 1, 3).reshape(n_x, d_b, -1)
    ly = (y.reshape(n_x, d_b, r_x, -1) * lam).reshape(y.shape)
    mu, w = np.linalg.eigh(ly @ y.conj().transpose(0, 2, 1))
    keep = _on_support(mu)
    mu = np.where(keep, mu, 1.0)
    w = w * keep[:, None, :]
    w_dag = w.conj().transpose(0, 2, 1)
    # h[x, j, k, a] = sqrt(l_a / m_xj) <x_k (x) w_xj|a>, zero on padded slots k
    h = (w_dag @ y).reshape(n_x, d_b, r_x, -1)
    h = h * np.sqrt(lam / mu[:, :, None])[:, :, None, :]
    phi = 0.5 * (np.log(lam) - np.log(mu)[:, :, None])                   # (x, j, a)
    kernel = _sinhc(phi[:, :, None, :, None] - phi[:, None, :, None, :])  # (x, j, j', a, a')
    gram = h[:, :, None].conj().transpose(0, 1, 2, 4, 3) @ h[:, None]
    m = w_dag @ sigma_x @ w
    r = (m.reshape(-1) @ (gram * kernel).reshape(m.size, -1)).reshape(len(lam), -1)
    vals, q = support_eig(r)
    return _fidelity(rho_eig, (vals, v @ q))


def _scalars(
    rho_ab: np.ndarray,
    ab_dims: tuple[int, ...],
    rho_eig: tuple[np.ndarray, np.ndarray],
    g: np.ndarray,
    x_pvm: Pvm,
    z_pvm: Pvm,
) -> tuple[float, float, float, float, float, float]:
    """H(X|B), H(Z|B), H(Z|E), H(A|B), c and f, the scalars of both relations.

    ``rho_ab`` lives on ``ab_dims`` with A first and B the rest, and
    ``rho_eig`` is its :func:`~eurqsi.linalg.support_eig` pair.  ``g`` is
    a factor of it, rho_AB = g g^dag, with rows on ``ab_dims`` and one
    column per basis vector of E: a purification psi_ABE read as a matrix.
    Measuring A commutes with tracing out B or E, so each entropy is taken
    on the block stack of the measured marginal it needs; the Z-measured AE
    stack comes from A of g compressed to Z's ranges, with B contracted, so
    no AE matrix is formed.
    """
    d_a, d_e = ab_dims[0], g.shape[-1]
    (n_x, r_x, _), (n_z, r_z, _) = x_pvm._ranges.shape, z_pvm._ranges.shape
    phi = (z_pvm._ranges.reshape(-1, d_a) @ g.reshape(d_a, -1)).reshape(n_z, -1, d_e)
    omega_ze = phi.transpose(0, 2, 1) @ phi.conj()
    # one compression to X's and Z's ranges serves H(XB), H(ZB) and the
    # pinched state in f; traced over its slots it is the X stack, then the Z stack
    blocks = _compressed(rho_ab, ab_dims, [x_pvm, z_pvm], 0)
    measured = _range_traced(blocks, max(r_x, r_z))
    ab_vals, ab_vecs = np.linalg.eigh(
        np.concatenate([measured[:n_x].sum(axis=0, keepdims=True), measured]))
    # with one range slot the Z stack is Z's compression: its eigenpairs serve
    # f too; a coarser Z's compression is the corner of its blocks on its slots
    s = r_z * measured.shape[1]
    z_eig = (ab_vals[-n_z:], ab_vecs[-n_z:]) if r_z == 1 else np.linalg.eigh(blocks[n_x:, :s, :s])
    ze_vals = np.linalg.eigvalsh(np.concatenate([omega_ze, omega_ze.sum(axis=0, keepdims=True)]))
    h_b, h_xb, h_zb, h_ze, h_e, h_rho = _entropies(
        [ab_vals[:1], ab_vals[1:n_x + 1], ab_vals[-n_z:], ze_vals[:-1], ze_vals[-1:], rho_eig[0]])
    c = incompatibility_c(x_pvm, z_pvm)
    f = _reversibility(z_eig, x_pvm, z_pvm, measured[:n_x], rho_eig)
    return h_xb - h_b, h_zb - h_b, h_ze - h_e, h_rho - h_b, c, f


def _bipartite_scalars(rho_ab: np.ndarray, dims: tuple[int, ...], x_pvm: Pvm, z_pvm: Pvm):
    """:func:`_scalars` of ``rho_ab`` (A first, B the rest) with its
    purifying vector as the factor, both from one support pair of rho_AB."""
    rho_eig = support_eig(rho_ab)
    return _scalars(rho_ab, dims, rho_eig, _purifying_vector(rho_eig, dims), x_pvm, z_pvm)


def check_bipartite(
    rho_ab: DensityOperator,
    x_pvm: Pvm,
    z_pvm: Pvm,
    measured: str = "A",
) -> EurReport:
    """Audit the bipartite relation and its reversibility refinement.

    Requires a rank-one Z measurement.  H(Z|E) is evaluated on the AE
    marginal of an explicit purification rather than through the duality
    identity, so the reported numbers stay independent cross-checks.
    """
    m, dims, _ = _measured_first(rho_ab, measured, x_pvm, z_pvm,
                                 "the bipartite refined relation requires")
    # the input is checked; below are plain arrays with the measured subsystem first
    return EurReport("bipartite_refined", *_bipartite_scalars(m, dims, x_pvm, z_pvm))


def check_tripartite(
    rho_abe: DensityOperator,
    x_pvm: Pvm,
    z_pvm: Pvm,
    a_label: str = "A",
    b_label: str = "B",
) -> EurReport:
    """Audit the tripartite relation and its reversibility refinement.

    The input must be pure; :func:`~eurqsi.states.purify` turns a mixed
    state into one whose E side holds the purifier.  Z need not be rank one
    here.  A state made from its vector is read as that vector.  A pure
    state given as a matrix is read as its column of largest diagonal entry,
    normalized, with no eigensolve: psi up to a phase when the matrix is
    |psi><psi|, and for a matrix of purity in [1 - 1e-8, 1), which counts
    as pure, the pure state along that column.
    """
    psi, dims = rho_abe._vector, rho_abe.dims
    if psi is None:
        if not rho_abe.is_pure():
            raise InvalidStateError(
                "tripartite checker needs a pure state; purify a mixed one first "
                "(eurqsi.purify appends the purifier to the E side)"
            )
        m = rho_abe.matrix
        k = np.argmax(m.diagonal().real)
        psi = m[:, k] / np.linalg.norm(m[:, k])
    a, b = _measured_position(rho_abe, a_label, x_pvm, z_pvm), rho_abe.label_index(b_label)
    if a == b:
        raise InvalidStateError(f"A and B are the same subsystem {a_label!r}")
    e = [i for i in range(len(dims)) if i not in (a, b)]
    if not e:
        raise InvalidStateError("tripartite state has no E subsystem")
    # the input is checked; below are plain arrays with the measured subsystem first
    ab_dims = (dims[a], dims[b])
    g = psi.reshape(dims).transpose([a, b] + e).reshape(dims[a] * dims[b], -1)
    # rho_AB = sum_e g_e g_e^dag over the columns of g, added in E order, as
    # the partial trace of psi psi^dag adds them
    rho_ab = np.add.accumulate(g.T[:, :, None] * g.T.conj()[:, None, :])[-1]
    return EurReport("tripartite_refined", *_scalars(
        rho_ab, ab_dims, support_eig(rho_ab), g, x_pvm, z_pvm))


@dataclass(frozen=True)
class FuzzSummary:
    """Worst-case slack over random instances, with a replayable witness."""

    relation_id: str
    trials: int
    dims: tuple[int, int]
    seed: int
    pvm_mode: str
    min_slack: float
    worst_trial: int
    max_refinement_gap: float
    worst_report: EurReport
    worst_instance: dict = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "relation_id": self.relation_id,
            "trials": self.trials,
            "dims": list(self.dims),
            "seed": self.seed,
            "pvm_mode": self.pvm_mode,
            "min_slack": float(self.min_slack),
            "worst_trial": self.worst_trial,
            "max_refinement_gap": float(self.max_refinement_gap),
            "worst_report": self.worst_report.to_dict(),
            "worst_instance": self.worst_instance,
        }


def fuzz(relation_id: str, trials: int, dims, seed: int) -> FuzzSummary:
    """Stress the chosen relation on random states and measurements.

    ``dims`` is the A dimension or an explicit (A, B) pair.  Measurements
    are Pauli X/Z for qubit A and Haar-random rank-one PVMs otherwise.
    Each trial draws rho_AB = G G^dag / Tr(G G^dag), a density matrix by
    construction, which it does not validate, and its random PVMs through
    :func:`random_pvm`, which does; it makes one :func:`_bipartite_scalars`
    call on them, as :func:`check_bipartite` does, to report the requested
    relation.  Deterministic under ``seed``.  After the last trial, the
    worst instance alone is validated as a :class:`DensityOperator` and
    serialized in the scenario dialect for replay.  ``trials`` must be a
    positive integer, ``dims`` integral and at least 1 and ``seed`` a
    non-negative integer; ``ValueError`` names the first argument that is
    not, before any trial.
    """
    if relation_id not in RELATION_IDS:
        raise ValueError(f"unknown relation_id {relation_id!r}")
    trials = _integer_argument("trials", trials, 1, np.inf, "a positive integer")
    dims = _integers((dims, dims) if np.isscalar(dims) else dims, "dims")
    if len(dims) != 2 or min(dims) < 1:
        raise ValueError(f"dims must be one or two integers of at least 1, got {dims}")
    seed = _integer_argument("seed", seed, 0, np.inf, "a non-negative integer")
    d_a, d_b = dims
    pvm_mode = "pauli" if d_a == 2 else "random"
    refined = relation_id.endswith("_refined")

    min_slack = np.inf
    worst = None
    max_gap = -np.inf
    if pvm_mode == "pauli":  # built once, for every trial
        x_pvm, z_pvm = pauli_pvm("X"), pauli_pvm("Z")
    for trial in range(trials):
        matrix = _random_density_matrix(d_a * d_b, d_a * d_b, [seed, trial, 0])
        if pvm_mode == "random":
            x_pvm = random_pvm(d_a, [seed, trial, 1])
            z_pvm = random_pvm(d_a, [seed, trial, 2])
        report = EurReport(relation_id, *_bipartite_scalars(matrix, dims, x_pvm, z_pvm))
        slack = report.slack_refined if refined else report.slack_original
        max_gap = max(max_gap, report.slack_refined - report.slack_original)
        if slack < min_slack:
            min_slack = slack
            worst = (trial, report, matrix, x_pvm, z_pvm)
    worst_trial, worst_report, matrix, x_pvm, z_pvm = worst
    worst_instance = scenario_to_dict(DensityOperator(matrix, dims, ("A", "B")), x_pvm, z_pvm)
    return FuzzSummary(
        relation_id=relation_id,
        trials=trials,
        dims=dims,
        seed=seed,
        pvm_mode=pvm_mode,
        min_slack=float(min_slack),
        worst_trial=worst_trial,
        max_refinement_gap=float(max_gap),
        worst_report=worst_report,
        worst_instance=worst_instance,
    )
