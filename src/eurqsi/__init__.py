"""Entropic uncertainty relations with quantum side information, tightened
by a measurement-reversibility term, plus the recovery channels and circuit
simulations that realize them numerically."""

from .linalg import (
    fidelity,
    herm_eig,
    op_norm,
    partial_trace,
    tensor,
    trace_distance,
)
from .entropy import conditional, relative, von_neumann
from .states import (
    DensityOperator,
    InvalidStateError,
    Pvm,
    incompatibility_c,
    measure,
    pauli_pvm,
    pinch,
    purify,
    random_pvm,
    random_state,
    theta_state,
)
from .recovery import (
    CpMap,
    apply_map,
    eur_recovery_map,
    measurement_channel,
    petz_map,
    rotated_petz_map,
    verify_cptp,
)
from .relations import EurReport, FuzzSummary, check_bipartite, check_tripartite, fuzz
from .gallery import build as build_example
from .gallery import run_all as run_examples
from .simulate import (
    ExperimentResult,
    NoiseSpec,
    ShotTable,
    bloch_tomography,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "fidelity", "herm_eig", "op_norm", "partial_trace", "tensor", "trace_distance",
    "conditional", "relative", "von_neumann",
    "DensityOperator", "InvalidStateError", "Pvm",
    "incompatibility_c", "measure", "pauli_pvm", "pinch", "purify",
    "random_pvm", "random_state", "theta_state",
    "CpMap", "apply_map", "eur_recovery_map", "measurement_channel",
    "petz_map", "rotated_petz_map", "verify_cptp",
    "EurReport", "FuzzSummary", "check_bipartite", "check_tripartite", "fuzz",
    "build_example", "run_examples",
    "ExperimentResult", "NoiseSpec", "ShotTable", "bloch_tomography",
    "run_experiment",
]
