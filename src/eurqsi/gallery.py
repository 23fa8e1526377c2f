"""The four built-in worked examples and their golden expectations.

Each case stores only inputs and golden outputs (entropies, the
incompatibility and reversibility constants, recovery-channel closed forms
and their action on selected states).  Every intermediate quantity is
derived by the generic pipeline when :func:`run_all` replays the cases.

Each closed-form reversal, r1, r2 and r3, is one read-only Kraus stack,
which the circuit simulator of :mod:`eurqsi.simulate` runs too.  r1 and r2
read the X register alone, and their maps take them with I_B; r3 acts on
(X, B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _frozen, op_norm, tensor, trace_distance
from .recovery import CpMap, apply_map, eur_recovery_map
from .relations import check_bipartite
from .states import (
    DensityOperator,
    Pvm,
    KET_0,
    KET_1,
    KET_MINUS,
    KET_PLUS,
    KET_PLUS_Y,
    bell_phi,
    ket_bra,
    maximally_mixed,
    pauli_pvm,
)

CASE_IDS = ("x_eigen", "z_eigen", "max_entangled", "max_uncertainty")

# tolerance classes: eigenvalue-exact scalars and maps, the incompatibility
# constant, and the pair of derived maps that must coincide
TOL_ENTROPY = 1e-9
TOL_C = 1e-12
TOL_MAP_PAIR = 1e-8


@dataclass(frozen=True, eq=False)
class GalleryCase:
    id: str
    rho_ab: DensityOperator
    x_pvm: Pvm
    z_pvm: Pvm
    expected: dict
    reference_recovery: CpMap
    expected_recovery_outputs: tuple


def _xb(mat: np.ndarray) -> DensityOperator:
    return DensityOperator(mat, (2, 2), ("X", "B"))


def _ab(mat: np.ndarray) -> DensityOperator:
    return DensityOperator(mat, (2, 2), ("A", "B"))


# The closed-form reversals, each one read-only Kraus stack: r1 and r2 read
# the X register alone and prepare an A state per outcome, r1 |+> and |->,
# r2 |0> for both; r3 measures X and coherently copies B to A with an
# x-controlled phase, K_x = sum_z (-1)^(xz) |zz><xz| on (X, B) -> (A, B).
# The circuit simulator runs the same stacks.
_R1_KRAUS = _frozen(np.stack([np.outer(KET_PLUS, KET_0), np.outer(KET_MINUS, KET_1)]))
_R2_KRAUS = _frozen(np.stack([np.outer(KET_0, KET_0), np.outer(KET_0, KET_1)]))
_R3_KRAUS = np.zeros((2, 4, 4), dtype=complex)
_R3_KRAUS[[0, 0, 1, 1], [0, 3, 0, 3], [0, 1, 2, 3]] = [1.0, 1.0, 1.0, -1.0]
_frozen(_R3_KRAUS)


def _reversal(kraus: np.ndarray) -> CpMap:
    """The map (X, B) -> (A, B) of a closed-form reversal's Kraus stack: on
    (X, B), or on the register alone, when it is taken with I_B."""
    if kraus.shape[1:] == (2, 2):
        kraus = [np.kron(k, np.eye(2)) for k in kraus]
    return CpMap.from_kraus(kraus, in_dims=(2, 2), out_dims=(2, 2),
                            in_labels=("X", "B"), out_labels=("A", "B"))


def recovery_map_r1() -> CpMap:
    """Closed form of the X-eigenstate case: 0 -> |+>, 1 -> |->, B untouched."""
    return _reversal(_R1_KRAUS)


def recovery_map_r2() -> CpMap:
    """Closed form of the Z-eigenstate case: discard X, prepare |0> on A."""
    return _reversal(_R2_KRAUS)


def recovery_map_r3() -> CpMap:
    """Closed form of the maximally entangled case (coherent copy B -> A)."""
    return _reversal(_R3_KRAUS)


def recovery_map_r4() -> CpMap:
    """Closed form of the maximum-uncertainty case; identical to r1."""
    return recovery_map_r1()


def build(case_id: str) -> GalleryCase:
    """Construct one worked example with its golden expectations."""
    pi = maximally_mixed(2)
    x_pvm, z_pvm = pauli_pvm("X"), pauli_pvm("Z")

    if case_id == "x_eigen":
        rho = _ab(tensor(ket_bra(KET_PLUS), pi))
        expected = dict(H_AB=0.0, H_XB=0.0, H_ZB=1.0, c=0.5, f=1.0,
                        lhs=1.0, rhs_original=1.0, rhs_refined=1.0)
        reference = recovery_map_r1()
        outputs = (
            (_xb(tensor(ket_bra(KET_0), pi)), _ab(tensor(ket_bra(KET_PLUS), pi))),
            (_xb(tensor(pi, pi)), _ab(tensor(pi, pi))),
        )
    elif case_id == "z_eigen":
        rho = _ab(tensor(ket_bra(KET_0), pi))
        expected = dict(H_AB=0.0, H_XB=1.0, H_ZB=0.0, c=0.5, f=1.0,
                        lhs=1.0, rhs_original=1.0, rhs_refined=1.0)
        reference = recovery_map_r2()
        outputs = (
            (_xb(tensor(pi, pi)), _ab(tensor(ket_bra(KET_0), pi))),
        )
    elif case_id == "max_entangled":
        rho = DensityOperator.from_vector(bell_phi(), (2, 2), ("A", "B"))
        expected = dict(H_AB=-1.0, H_XB=0.0, H_ZB=0.0, c=0.5, f=1.0,
                        lhs=0.0, rhs_original=0.0, rhs_refined=0.0)
        reference = recovery_map_r3()
        zero_plus = np.kron(KET_0, KET_PLUS)
        one_minus = np.kron(KET_1, KET_MINUS)
        sigma = 0.5 * (ket_bra(zero_plus) + ket_bra(one_minus))
        correlated = 0.5 * (ket_bra(np.kron(KET_0, KET_0)) + ket_bra(np.kron(KET_1, KET_1)))
        outputs = (
            (_xb(sigma), _ab(ket_bra(bell_phi()))),
            (_xb(tensor(pi, pi)), _ab(correlated)),
        )
    elif case_id == "max_uncertainty":
        rho = _ab(tensor(ket_bra(KET_PLUS_Y), pi))
        expected = dict(H_AB=0.0, H_XB=1.0, H_ZB=1.0, c=0.5, f=0.5,
                        lhs=2.0, rhs_original=1.0, rhs_refined=2.0)
        reference = recovery_map_r4()
        outputs = (
            (_xb(tensor(pi, pi)), _ab(tensor(pi, pi))),
        )
    else:
        raise ValueError(f"unknown gallery case {case_id!r}")

    return GalleryCase(
        id=case_id,
        rho_ab=rho,
        x_pvm=x_pvm,
        z_pvm=z_pvm,
        expected=expected,
        reference_recovery=reference,
        expected_recovery_outputs=outputs,
    )


@dataclass(frozen=True)
class GalleryCheck:
    case: str
    check: str
    residual: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "check": self.check,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "ok": bool(self.ok),
        }


def run_all(tolerance_override: float | None = None) -> list[GalleryCheck]:
    """Replay every case through the generic pipeline and compare.

    Returns one row per residual; ``tolerance_override`` replaces every
    tolerance class (used by the CLI's --tolerance flag).
    """
    rows: list[GalleryCheck] = []

    def add(case, check, residual, tol):
        if tolerance_override is not None:
            tol = tolerance_override
        rows.append(GalleryCheck(case, check, float(residual), float(tol)))

    derived_chois = {}
    for case_id in CASE_IDS:
        case = build(case_id)
        report = check_bipartite(case.rho_ab, case.x_pvm, case.z_pvm)
        got = report.to_dict()
        for key in ("H_AB", "H_XB", "H_ZB", "lhs", "rhs_original"):
            add(case_id, key, abs(got[key] - case.expected[key]), TOL_ENTROPY)
        add(case_id, "c", abs(got["c"] - case.expected["c"]), TOL_C)
        add(case_id, "f", abs(got["f"] - case.expected["f"]), TOL_ENTROPY)
        add(case_id, "rhs_refined",
            abs(got["rhs_refined"] - case.expected["rhs_refined"]), TOL_ENTROPY)

        rec = eur_recovery_map(case.rho_ab, case.x_pvm, case.z_pvm)
        derived_chois[case_id] = rec.choi
        add(case_id, "choi_vs_closed_form",
            op_norm(rec.choi - case.reference_recovery.choi), TOL_ENTROPY)
        for i, (inp, expected_out) in enumerate(case.expected_recovery_outputs):
            out = apply_map(rec, inp)
            add(case_id, f"recovery_output_{i}",
                trace_distance(out.matrix, expected_out.matrix), TOL_ENTROPY)

    add("max_uncertainty", "same_map_as_x_eigen",
        op_norm(derived_chois["max_uncertainty"] - derived_chois["x_eigen"]),
        TOL_MAP_PAIR)
    return rows


def all_ok(rows) -> bool:
    return all(r.ok for r in rows)
