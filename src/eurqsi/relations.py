"""End-to-end checkers for the four uncertainty relations.

Each check takes every entropy on the measured marginal it needs (X or Z
applied to the AB or AE reduction, never to the whole state), evaluates
the incompatibility constant, builds the recovery channel, and returns an
:class:`EurReport` holding every scalar of the original and refined
inequalities.  Entropy terms are eigenvalue-exact (1e-9); the refined
inequality counts as violated only when its slack is below -1e-6; the
report carries both tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entropy import conditional
from .linalg import fidelity
from .recovery import (
    apply_map,
    measurement_channel,
    rotated_petz_map,
    tensor_with_identity,
)
from .states import (
    DensityOperator,
    InvalidStateError,
    Pvm,
    measure,
    incompatibility_c,
    pauli_pvm,
    pinch,
    purify,
    random_multipartite_state,
    random_pvm,
)

ENTROPY_TOL = 1e-9
FIDELITY_TOL = 1e-6

RELATION_IDS = ("tripartite", "tripartite_refined", "bipartite", "bipartite_refined")


@dataclass(frozen=True)
class EurReport:
    """All scalar quantities of one uncertainty-relation check (bits)."""

    relation_id: str
    h_xb: float
    h_zb: float
    h_ze: float
    h_ab: float
    c: float
    f: float
    lhs: float
    rhs_original: float
    rhs_refined: float
    slack_original: float
    slack_refined: float
    entropy_tolerance: float = ENTROPY_TOL
    fidelity_tolerance: float = FIDELITY_TOL

    def __post_init__(self):
        if self.relation_id not in RELATION_IDS:
            raise ValueError(f"unknown relation_id {self.relation_id!r}")
        if self.slack_refined > self.slack_original + 1e-9:
            raise ValueError(
                "refined slack exceeds original slack: the refinement can never loosen"
            )
        if self.slack_refined < -self.fidelity_tolerance:
            raise ValueError(
                f"refined inequality violated: slack {self.slack_refined:.3e}"
            )

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
    rho_ab: DensityOperator,
    x_pvm: Pvm,
    z_pvm: Pvm,
    sigma_xb: DensityOperator,
    measured: str,
) -> float:
    """f = F(rho_AB, R(sigma_XB)) with R the rotated Petz recovery of the X
    measurement relative to the Z-pinched state.

    No completion is needed: the pinching inequality puts supp(sigma_XB)
    inside the support of the doubly measured state, where R is defined.
    """
    rest_labels = [s for s in rho_ab.labels if s != measured]
    # the recovery channel emits the measured subsystem first
    rho_ord = rho_ab.permute([measured] + rest_labels)
    chan = tensor_with_identity(
        measurement_channel(x_pvm, measured, "X"),
        rho_ord.dims[1:], rest_labels,
    )
    rec = rotated_petz_map(pinch(rho_ord, z_pvm, measured).matrix, chan)
    recovered = apply_map(rec, sigma_xb)
    return fidelity(rho_ord.matrix, recovered.matrix)


def check_bipartite(
    rho_ab: DensityOperator,
    x_pvm: Pvm,
    z_pvm: Pvm,
    measured: str = "A",
) -> EurReport:
    """Audit the bipartite relation and its reversibility refinement.

    Requires a rank-one Z measurement.  H(Z|E) is evaluated on an explicit
    purification rather than through the duality identity, so the reported
    numbers stay independent cross-checks.
    """
    if not z_pvm.is_rank_one():
        raise InvalidStateError(
            "the bipartite refined relation requires a rank-one Z measurement"
        )
    b_labels = [s for s in rho_ab.labels if s != measured]
    sigma = measure(rho_ab, x_pvm, measured, "X")
    omega = measure(rho_ab, z_pvm, measured, "Z")
    h_xb = conditional(sigma, b_labels)
    h_zb = conditional(omega, b_labels)
    h_ab = conditional(rho_ab, b_labels)

    rho_ae = purify(rho_ab, "_E").reduce([measured, "_E"])
    omega_ze = measure(rho_ae, z_pvm, measured, "Z")
    h_ze = conditional(omega_ze, ["_E"])

    c = incompatibility_c(x_pvm, z_pvm)
    f = _reversibility(rho_ab, x_pvm, z_pvm, sigma, measured)
    lhs = h_zb + h_xb
    rhs_original = -np.log2(c) + h_ab
    rhs_refined = -np.log2(c) - np.log2(f) + h_ab
    return EurReport(
        relation_id="bipartite_refined",
        h_xb=h_xb, h_zb=h_zb, h_ze=h_ze, h_ab=h_ab, c=c, f=f,
        lhs=lhs, rhs_original=rhs_original, rhs_refined=rhs_refined,
        slack_original=lhs - rhs_original, slack_refined=lhs - rhs_refined,
    )


def check_tripartite(
    rho_abe: DensityOperator,
    x_pvm: Pvm,
    z_pvm: Pvm,
    a_label: str = "A",
    b_label: str = "B",
    purify_if_mixed: bool = False,
) -> EurReport:
    """Audit the tripartite relation and its reversibility refinement.

    The input must be pure; a mixed state is accepted only with
    ``purify_if_mixed``, which enlarges the E side by the purifier.
    Z need not be rank one here.
    """
    if not rho_abe.is_pure(1e-8):
        if not purify_if_mixed:
            raise InvalidStateError(
                "tripartite checker needs a pure state; pass purify_if_mixed=True "
                "to absorb a purifier into the E side"
            )
        rho_abe = purify(rho_abe, "_E")
    e_labels = [s for s in rho_abe.labels if s not in (a_label, b_label)]
    if not e_labels:
        raise InvalidStateError("tripartite state has no E subsystem")

    # measuring A commutes with tracing out B or E
    rho_ab = rho_abe.reduce([a_label, b_label])
    rho_ae = rho_abe.reduce([a_label] + e_labels)
    sigma_xb = measure(rho_ab, x_pvm, a_label, "X")
    omega_zb = measure(rho_ab, z_pvm, a_label, "Z")
    omega_ze = measure(rho_ae, z_pvm, a_label, "Z")
    h_xb = conditional(sigma_xb, [b_label])
    h_zb = conditional(omega_zb, [b_label])
    h_ze = conditional(omega_ze, e_labels)
    h_ab = conditional(rho_ab, [b_label])

    c = incompatibility_c(x_pvm, z_pvm)
    f = _reversibility(rho_ab, x_pvm, z_pvm, sigma_xb, a_label)
    lhs = h_ze + h_xb
    rhs_original = -np.log2(c)
    rhs_refined = -np.log2(c) - np.log2(f)
    return EurReport(
        relation_id="tripartite_refined",
        h_xb=h_xb, h_zb=h_zb, h_ze=h_ze, h_ab=h_ab, c=c, f=f,
        lhs=lhs, rhs_original=rhs_original, rhs_refined=rhs_refined,
        slack_original=lhs - rhs_original, slack_refined=lhs - rhs_refined,
    )


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


def _slack_of(report: EurReport, relation_id: str) -> float:
    return report.slack_refined if relation_id.endswith("refined") else report.slack_original


def fuzz(
    relation_id: str,
    trials: int,
    dims,
    seed: int,
    pvm_mode: str | None = None,
) -> FuzzSummary:
    """Stress the chosen relation on random states and measurements.

    ``dims`` is the A dimension or an explicit (A, B) pair.  Measurements
    default to Pauli X/Z for qubit A and Haar-random rank-one PVMs
    otherwise.  Deterministic under ``seed``; the worst instance is
    serialized in the scenario dialect for replay.
    """
    if relation_id not in RELATION_IDS:
        raise ValueError(f"unknown relation_id {relation_id!r}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if np.isscalar(dims):
        dims = (int(dims), int(dims))
    d_a, d_b = int(dims[0]), int(dims[1])
    if pvm_mode is None:
        pvm_mode = "pauli" if d_a == 2 else "random"
    if pvm_mode not in ("pauli", "random"):
        raise ValueError(f"unknown pvm_mode {pvm_mode!r}")
    if pvm_mode == "pauli" and d_a != 2:
        raise ValueError("pauli mode needs a qubit A system")

    from .serialize import scenario_to_dict  # deferred: serialize imports states

    min_slack = np.inf
    worst = None
    max_gap = -np.inf
    for trial in range(trials):
        rho = random_multipartite_state(
            (d_a, d_b), d_a * d_b, [seed, trial, 0], ("A", "B")
        )
        if pvm_mode == "pauli":
            x_pvm, z_pvm = pauli_pvm("X"), pauli_pvm("Z")
        else:
            x_pvm = random_pvm(d_a, [seed, trial, 1])
            z_pvm = random_pvm(d_a, [seed, trial, 2])
        if relation_id.startswith("bipartite"):
            report = check_bipartite(rho, x_pvm, z_pvm)
        else:
            rho_abe = purify(rho, "E")
            report = check_tripartite(rho_abe, x_pvm, z_pvm)
        slack = _slack_of(report, relation_id)
        max_gap = max(max_gap, report.slack_refined - report.slack_original)
        if slack < min_slack:
            min_slack = slack
            worst = (trial, report, scenario_to_dict(rho, x_pvm, z_pvm))
    worst_trial, worst_report, worst_instance = worst
    return FuzzSummary(
        relation_id=relation_id,
        trials=trials,
        dims=(d_a, d_b),
        seed=int(seed),
        pvm_mode=pvm_mode,
        min_slack=float(min_slack),
        worst_trial=worst_trial,
        max_refinement_gap=float(max_gap),
        worst_report=worst_report,
        worst_instance=worst_instance,
    )
