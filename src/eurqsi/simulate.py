"""Density-matrix circuit simulator with shot sampling and optional noise.

Mid-circuit measurements pinch the target and copy the outcome into a
classical register kept as an extra (decohered) subsystem, so recovery
channels conditioned on the register are exact.  Shots are sampled from
the exact final distribution; there is no per-shot re-execution.

Noise model: symmetric depolarizing with strength ``depolarizing_p`` on
every qubit a gate touches, plus a classical bit flip with probability
``readout_flip`` on every recorded or sampled measurement bit.  Device
calibration data is not modeled; noisy results are model-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import apply_local
from .recovery import CpMap, kraus_from_choi
from .states import (
    DensityOperator,
    KET_MINUS,
    KET_PLUS,
    _reordered,
    bell_phi,
    ket_bra,
    maximally_mixed,
    pauli_pvm,
)

GATES = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
}


@dataclass(frozen=True)
class Gate:
    name: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()


@dataclass(frozen=True)
class Measure:
    target: int
    register: str


@dataclass(frozen=True)
class Recovery:
    map_id: str


@dataclass(frozen=True)
class Circuit:
    """Ordered gate/measure/recovery program on ``qubit_count`` qubits."""

    qubit_count: int
    ops: tuple

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        qubit_labels = {f"q{i}" for i in range(self.qubit_count)}
        seen_registers = set()
        for op in self.ops:
            if isinstance(op, Gate):
                touched = op.targets + op.controls
                for q in touched:
                    if not 0 <= q < self.qubit_count:
                        raise ValueError(f"gate touches qubit {q} out of range")
                if len(set(touched)) != len(touched):
                    raise ValueError(f"gate {op.name!r} repeats a qubit in {touched}")
                if len(op.targets) != 1:
                    raise ValueError(f"gate {op.name!r} needs one target, got {op.targets}")
                if op.name not in GATES:
                    raise ValueError(f"unknown gate {op.name!r}")
            elif isinstance(op, Measure):
                if not 0 <= op.target < self.qubit_count:
                    raise ValueError(f"measure target {op.target} out of range")
                if op.register in qubit_labels:
                    raise ValueError(f"register {op.register!r} collides with a qubit label")
                if op.register in seen_registers:
                    raise ValueError(f"register {op.register!r} written twice")
                seen_registers.add(op.register)
            elif not isinstance(op, Recovery):
                raise TypeError(f"unknown circuit op {op!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """Depolarizing strength per gate and classical readout flip probability."""

    depolarizing_p: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self):
        for name in ("depolarizing_p", "readout_flip"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


NOISELESS = NoiseSpec()


@dataclass(frozen=True)
class ShotTable:
    """Empirical outcome counts with binomial standard errors."""

    counts: dict
    shots: int

    def __post_init__(self):
        counts = {str(k): int(v) for k, v in self.counts.items()}
        object.__setattr__(self, "counts", counts)
        if sum(counts.values()) != self.shots:
            raise ValueError("counts do not sum to shots")

    def frequency(self, outcome: str) -> float:
        return self.counts.get(str(outcome), 0) / self.shots

    def stderr(self, outcome: str) -> float:
        p = self.frequency(outcome)
        return float(np.sqrt(p * (1.0 - p) / self.shots))

    def to_rows(self) -> list[dict]:
        return [
            {
                "outcome": k,
                "count": v,
                "frequency": self.frequency(k),
                "stderr": self.stderr(k),
            }
            for k, v in sorted(self.counts.items())
        ]

    def to_dict(self) -> dict:
        return {"shots": self.shots, "outcomes": self.to_rows()}


def apply_gate(rho: np.ndarray, dims, name: str, targets, controls=()) -> np.ndarray:
    """Apply a (possibly controlled) named gate; trace is preserved."""
    g = GATES[name]
    targets, controls = tuple(targets), tuple(controls)
    if controls:
        ctrl_dim = int(np.prod([dims[c] for c in controls]))
        ones = np.zeros((ctrl_dim, ctrl_dim), dtype=complex)
        ones[-1, -1] = 1.0  # all controls in |1>
        g = np.kron(np.eye(ctrl_dim) - ones, np.eye(g.shape[0])) + np.kron(ones, g)
    return apply_local(rho, dims, [g], controls + targets)


def depolarize(rho: np.ndarray, dims, qubit: int, p: float) -> np.ndarray:
    """Symmetric single-qubit depolarizing: p = 1 yields the maximally mixed
    marginal regardless of input."""
    if p == 0.0:
        return rho
    kraus = [np.sqrt(1.0 - 3.0 * p / 4.0) * GATES["i"]]
    kraus += [np.sqrt(p / 4.0) * GATES[axis] for axis in ("x", "y", "z")]
    return apply_local(rho, dims, kraus, [qubit])


def _flip_matrix(q: float) -> np.ndarray:
    return np.array([[1.0 - q, q], [q, 1.0 - q]])


def flip_distribution(probs: np.ndarray, q: float) -> np.ndarray:
    """Independent classical bit flips on a 2**n outcome distribution."""
    if q == 0.0:
        return probs
    n_bits = int(np.log2(len(probs)))
    t = probs.reshape((2,) * n_bits)
    for axis in range(n_bits):
        t = np.tensordot(_flip_matrix(q), t, axes=([1], [axis]))
        t = np.moveaxis(t, 0, axis)
    return t.reshape(-1)


class _SimState:
    """Mutable density matrix with tracked subsystem labels."""

    def __init__(self, qubit_count: int):
        self.dims = [2] * qubit_count
        self.labels = [f"q{i}" for i in range(qubit_count)]
        psi = np.zeros(2 ** qubit_count, dtype=complex)
        psi[0] = 1.0
        self.rho = ket_bra(psi)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def gate(self, op: Gate, noise: NoiseSpec):
        targets = tuple(self.index(f"q{i}") for i in op.targets)
        controls = tuple(self.index(f"q{i}") for i in op.controls)
        self.rho = apply_gate(self.rho, self.dims, op.name, targets, controls)
        for pos in targets + controls:
            self.rho = depolarize(self.rho, self.dims, pos, noise.depolarizing_p)

    def measure(self, op: Measure, noise: NoiseSpec):
        pos = self.index(f"q{op.target}")
        d = self.dims[pos]
        # Append the register in |0>, then copy the computational outcome
        # into it with the Kraus operators |m><m| (x) |m><0|.
        basis = np.eye(d, dtype=complex)
        self.rho = np.kron(self.rho, ket_bra(basis[0]))
        self.dims.append(d)
        self.labels.append(op.register)
        kraus = [np.kron(ket_bra(e), ket_bra(e, basis[0])) for e in basis]
        register = len(self.dims) - 1
        self.rho = apply_local(self.rho, self.dims, kraus, [pos, register])
        if noise.readout_flip > 0.0:
            q = noise.readout_flip
            flips = [np.sqrt(1.0 - q) * GATES["i"], np.sqrt(q) * GATES["x"]]
            self.rho = apply_local(self.rho, self.dims, flips, [register])

    def recover(self, cpmap: CpMap, in_labels, out_labels):
        """Replace ``in_labels`` by the map's outputs, placed at the front."""
        positions = [self.index(s) for s in in_labels]
        rest = [i for i in range(len(self.dims)) if i not in positions]
        t = _reordered(self.rho, self.dims, positions + rest)
        kraus = cpmap.kraus
        if kraus is None:
            kraus = kraus_from_choi(cpmap.choi, cpmap.in_dim, cpmap.out_dim)
        rest_dims = [self.dims[i] for i in rest]
        self.rho = apply_local(t, [cpmap.in_dim] + rest_dims, kraus, [0])
        self.dims = list(cpmap.out_dims) + rest_dims
        self.labels = list(out_labels) + [self.labels[i] for i in rest]

    def density_operator(self) -> DensityOperator:
        return DensityOperator(self.rho, tuple(self.dims), tuple(self.labels))


def run_circuit(
    circuit: Circuit,
    recovery_bindings: dict | None = None,
    noise: NoiseSpec = NOISELESS,
) -> DensityOperator:
    """Exact noisy evolution; returns the full final state with labels.

    ``recovery_bindings`` maps a ``Recovery.map_id`` to a tuple
    ``(cpmap, in_labels, out_labels)``.
    """
    state = _SimState(circuit.qubit_count)
    for op in circuit.ops:
        if isinstance(op, Gate):
            state.gate(op, noise)
        elif isinstance(op, Measure):
            state.measure(op, noise)
        elif isinstance(op, Recovery):
            if not recovery_bindings or op.map_id not in recovery_bindings:
                raise ValueError(f"no binding for recovery map {op.map_id!r}")
            cpmap, in_labels, out_labels = recovery_bindings[op.map_id]
            state.recover(cpmap, in_labels, out_labels)
    return state.density_operator()


def sample_distribution(probs, outcome_labels, shots: int, rng) -> ShotTable:
    probs = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    # numpy's binomial draw branches on p <= 1/2, so round-off of one ulp
    # either side of an exact 1/2 would swap the counts.  Sampling from the
    # probabilities snapped to a 1e-12 grid keeps the counts a function of
    # the distribution rather than of the order of floating-point operations.
    probs = np.round(probs / probs.sum(), 12)
    probs = probs / probs.sum()
    counts = rng.multinomial(shots, probs)
    return ShotTable(dict(zip(outcome_labels, (int(c) for c in counts))), shots)


def bloch_tomography(tables: dict) -> tuple[float, float, float]:
    """Bloch vector estimate from X/Y/Z-basis shot tables."""
    shots = {t.shots for t in tables.values()}
    if len(shots) != 1:
        raise ValueError("tomography tables have mismatched shot counts")
    coords = []
    for axis in ("X", "Y", "Z"):
        t = tables[axis]
        coords.append(t.frequency("0") - t.frequency("1"))
    return tuple(coords)


def _r1_register_map() -> CpMap:
    """Reversal of an X measurement from the register alone: 0 -> |+>, 1 -> |->."""
    kraus = (
        np.outer(KET_PLUS, [1.0, 0.0]),
        np.outer(KET_MINUS, [0.0, 1.0]),
    )
    return CpMap.from_kraus(kraus, in_dims=(2,), out_dims=(2,))


def _qubit_distribution(rho: DensityOperator, label: str, axis: str) -> np.ndarray:
    reduced = rho.reduce([label])
    pvm = pauli_pvm(axis)
    return np.array(
        [float(np.trace(p @ reduced.matrix).real) for p in pvm.projectors]
    )


def _pair_distribution(
    rho: DensityOperator, labels: tuple[str, str], axis: str
) -> np.ndarray:
    """Joint outcome distribution of (sigma_axis, sigma_axis*) on two qubits."""
    reduced = rho.reduce(list(labels))
    if reduced.labels != tuple(labels):
        raise ValueError("unexpected label order after reduction")
    pvm = pauli_pvm(axis)
    probs = []
    for pa in pvm.projectors:
        for pb in pvm.projectors:
            proj = np.kron(pa, pb.conj())
            probs.append(float(np.trace(proj @ reduced.matrix).real))
    return np.array(probs)


@dataclass(frozen=True)
class ExperimentResult:
    """Shot tables plus exact and tomography-estimated output states."""

    experiment: int
    shots: int
    seed: int
    noise: NoiseSpec
    tables: dict
    final_state: DensityOperator
    ideal_state: DensityOperator
    bloch_estimate: tuple[float, float, float] | None = None
    bloch_ideal: tuple[float, float, float] | None = None
    rng_algorithm: str = "numpy.random.PCG64"

    def estimated_state(self) -> np.ndarray | None:
        """Single-qubit state reconstructed from the Bloch estimate."""
        if self.bloch_estimate is None:
            return None
        x, y, z = self.bloch_estimate
        paulis = (GATES["x"], GATES["y"], GATES["z"])
        m = 0.5 * (np.eye(2, dtype=complex) + x * paulis[0] + y * paulis[1] + z * paulis[2])
        return m

    def to_dict(self) -> dict:
        out = {
            "experiment": self.experiment,
            "shots": self.shots,
            "seed": self.seed,
            "noise": {
                "depolarizing_p": self.noise.depolarizing_p,
                "readout_flip": self.noise.readout_flip,
            },
            "rng_algorithm": self.rng_algorithm,
            "tables": {k: t.to_dict() for k, t in self.tables.items()},
        }
        if self.bloch_estimate is not None:
            out["bloch_estimate"] = list(self.bloch_estimate)
            out["bloch_ideal"] = list(self.bloch_ideal)
        return out


def experiment_circuit(exp_id: int) -> Circuit:
    """The logical circuit of one of the six protocol variants.

    A Pauli-X measurement is a computational measurement conjugated by
    Hadamards; the register op itself always reads the computational basis.
    """
    x_measurement = [Gate("h", (0,)), Measure(0, "X"), Gate("h", (0,))]
    if exp_id in (1, 2, 3, 4):
        ops = [Gate("h", (0,))]
        if exp_id in (3, 4):
            ops.append(Gate("s", (0,)))  # |+> -> |+_Y>
        if exp_id in (2, 4):
            ops.append(Measure(0, "Z"))
        ops += x_measurement + [Recovery("r1")]
        return Circuit(1, tuple(ops))
    if exp_id in (5, 6):
        ops = [Gate("h", (0,)), Gate("x", (1,), controls=(0,))]
        if exp_id == 6:
            ops.append(Measure(0, "Z"))
        ops += x_measurement + [Recovery("r3")]
        return Circuit(2, tuple(ops))
    raise ValueError(f"experiment id must be 1..6, got {exp_id}")


def _ideal_state(exp_id: int) -> DensityOperator:
    if exp_id == 1:
        return DensityOperator(ket_bra(KET_PLUS), (2,), ("Ap",))
    if exp_id in (2, 3, 4):
        return DensityOperator(maximally_mixed(2), (2,), ("Ap",))
    if exp_id == 5:
        return DensityOperator(ket_bra(bell_phi()), (2, 2), ("Ap", "B"))
    correlated = 0.5 * (
        ket_bra(np.array([1, 0, 0, 0], dtype=complex))
        + ket_bra(np.array([0, 0, 0, 1], dtype=complex))
    )
    return DensityOperator(correlated, (2, 2), ("Ap", "B"))


def run_experiment(
    exp_id: int,
    shots: int = 8192,
    noise: NoiseSpec = NOISELESS,
    seed: int = 0,
) -> ExperimentResult:
    """Simulate one protocol variant and sample its measurement statistics.

    Experiments 1-4 finish with Bloch tomography of the recovered qubit;
    5-6 with the three two-qubit correlation measurements.  Deterministic
    under ``seed``.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    circuit = experiment_circuit(exp_id)
    from .gallery import recovery_map_r3

    bindings = {
        "r1": (_r1_register_map(), ("X",), ("Ap",)),
        "r3": (recovery_map_r3(), ("X", "q1"), ("Ap", "B")),
    }
    final = run_circuit(circuit, bindings, noise)
    rng = np.random.default_rng([int(seed), int(exp_id)])
    tables = {}
    if exp_id <= 4:
        for axis in ("X", "Y", "Z"):
            probs = _qubit_distribution(final, "Ap", axis)
            probs = flip_distribution(probs, noise.readout_flip)
            tables[axis] = sample_distribution(probs, ("0", "1"), shots, rng)
        bloch = bloch_tomography(tables)
        ideal = _ideal_state(exp_id)
        bloch_ideal = tuple(
            float(np.trace(GATES[a] @ ideal.matrix).real) for a in ("x", "y", "z")
        )
        return ExperimentResult(
            experiment=exp_id, shots=shots, seed=int(seed), noise=noise,
            tables=tables, final_state=final.reduce(["Ap"]), ideal_state=ideal,
            bloch_estimate=bloch, bloch_ideal=bloch_ideal,
        )
    for key, axis in (("XX", "X"), ("YY*", "Y"), ("ZZ", "Z")):
        probs = _pair_distribution(final, ("Ap", "B"), axis)
        probs = flip_distribution(probs, noise.readout_flip)
        tables[key] = sample_distribution(probs, ("00", "01", "10", "11"), shots, rng)
    return ExperimentResult(
        experiment=exp_id, shots=shots, seed=int(seed), noise=noise,
        tables=tables, final_state=final.reduce(["Ap", "B"]),
        ideal_state=_ideal_state(exp_id),
    )
