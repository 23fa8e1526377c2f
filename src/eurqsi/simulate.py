"""Density-matrix circuit simulator with shot sampling and optional noise.

Every gate and measurement is one Kraus step, one call of the
operator-stack kernel :func:`~eurqsi.linalg._local_stack` on the
subsystems it touches, and every recovery one Choi step.  A gate
and the depolarizing noise on its qubits form one Kraus set on controls +
targets, applied by :func:`~eurqsi.linalg.apply_local`.  A measurement
copies the computational outcome into a classical register with the
operators ``|m>|m><m|`` on the target, the readout flip folded into the
same set, and one :func:`~eurqsi.linalg._in_order` puts the target back
and the register last; the register is a decohered subsystem, so recovery
channels conditioned on it are exact.  A recovery is its map's Choi
matrix: one :func:`~eurqsi.linalg._in_order` puts the subsystems it reads
in front, and one Choi contraction (:meth:`~eurqsi.recovery.CpMap._apply`)
replaces them by the map's outputs and carries the rest along.  Shots are
sampled from the exact final distribution; there is no per-shot
re-execution.

:func:`run_circuit` returns the validated final state.  :func:`run_experiment`
uses only the recovery map its circuit names, built once per process,
reduces the final state once to the recovered subsystems, validates that
one state and reads every shot table from it through constant basis
matrices.

Noise model: symmetric depolarizing with strength ``depolarizing_p`` on
every qubit a gate touches, plus a classical bit flip with probability
``readout_flip`` on every recorded or sampled measurement bit.  Device
calibration data is not modeled; noisy results are model-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import _in_order, _local_stack, apply_local
from .recovery import CpMap
from .states import (
    DensityOperator,
    KET_0,
    KET_1,
    KET_MINUS,
    KET_MINUS_Y,
    KET_PLUS,
    KET_PLUS_Y,
    bell_phi,
    ket_bra,
    maximally_mixed,
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
        if self.shots < 1 or any(v < 0 for v in counts.values()):
            raise ValueError("shots must be positive and counts non-negative")
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


_PAULIS = np.stack([GATES[a] for a in ("i", "x", "y", "z")])

# |m>|m><m| for m = 0, 1: the target keeps the outcome and the register,
# the second factor, receives a copy of it
_COPY = np.stack([np.outer(np.kron(e, e), e) for e in np.eye(2, dtype=complex)])
_REGISTER_FLIP = np.kron(GATES["i"], GATES["x"])


def _kron_sets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every ``a_i (x) b_j`` of two stacks of operators, ``i`` slowest."""
    rows, cols = a.shape[1] * b.shape[1], a.shape[2] * b.shape[2]
    out = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    return out.reshape(len(a) * len(b), rows, cols)


def _depolarizing_kraus(n_qubits: int, p: float) -> np.ndarray:
    """Kraus operators of symmetric depolarizing of strength ``p`` on each
    of ``n_qubits`` qubits; only the identity when ``p`` is 0."""
    if p == 0.0:
        return np.eye(2 ** n_qubits, dtype=complex)[None]
    one = _PAULIS * np.sqrt([1.0 - 3.0 * p / 4.0, p / 4.0, p / 4.0, p / 4.0])[:, None, None]
    kraus = np.ones((1, 1, 1), dtype=complex)
    for _ in range(n_qubits):
        kraus = _kron_sets(kraus, one)
    return kraus


def _gate_kraus(name: str, n_controls: int, p: float) -> np.ndarray:
    """A named gate on (controls, target), acting when every control is |1>,
    followed by depolarizing of strength ``p`` on each of those qubits."""
    g = np.eye(2 ** (n_controls + 1), dtype=complex)
    g[-2:, -2:] = GATES[name]
    return _depolarizing_kraus(n_controls + 1, p) @ g


def _measure_kraus(q: float) -> np.ndarray:
    """Kraus operators ``|m>|m xor f><m|`` of a qubit measurement whose
    register bit ``f`` flips with probability ``q``."""
    if q == 0.0:
        return _COPY
    return np.concatenate([np.sqrt(1.0 - q) * _COPY, np.sqrt(q) * (_REGISTER_FLIP @ _COPY)])


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
        positions = [self.index(f"q{i}") for i in op.controls + op.targets]
        kraus = _gate_kraus(op.name, len(op.controls), noise.depolarizing_p)
        self.rho = apply_local(self.rho, self.dims, kraus, positions)

    def measure(self, op: Measure, noise: NoiseSpec):
        """Copy the outcome into a register; the Kraus step leaves (target,
        register) in front, and the target goes back, the register last."""
        pos = self.index(f"q{op.target}")
        rho = _local_stack(self.rho, self.dims, _measure_kraus(noise.readout_flip), [pos])
        dims = [2, 2] + self.dims[:pos] + self.dims[pos + 1:]
        order = list(range(2, pos + 2)) + [0] + list(range(pos + 2, len(dims))) + [1]
        self.rho, dims = _in_order(rho.sum(axis=0), dims, order)
        self.dims = list(dims)
        self.labels.append(op.register)

    def recover(self, cpmap: CpMap, in_labels, out_labels):
        """Replace ``in_labels`` by the map's outputs, placed at the front."""
        positions = [self.index(s) for s in in_labels]
        rest = [i for i in range(len(self.dims)) if i not in positions]
        self.rho = cpmap._apply(_in_order(self.rho, self.dims, positions + rest)[0])
        self.dims = list(cpmap.out_dims) + [self.dims[i] for i in rest]
        self.labels = list(out_labels) + [self.labels[i] for i in rest]


def run_circuit(
    circuit: Circuit,
    recovery_bindings: dict | None = None,
    noise: NoiseSpec = NOISELESS,
) -> DensityOperator:
    """Exact noisy evolution; returns the full final state with labels.

    ``recovery_bindings`` maps a ``Recovery.map_id`` to a tuple
    ``(cpmap, in_labels, out_labels)``.
    """
    state = _evolve(circuit, recovery_bindings, noise)
    return DensityOperator(state.rho, tuple(state.dims), tuple(state.labels))


def _evolve(circuit: Circuit, recovery_bindings: dict | None, noise: NoiseSpec) -> _SimState:
    """The array kernel behind :func:`run_circuit`: one Kraus or Choi step
    per op."""
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
            dims = dict(zip(state.labels, state.dims))
            bound = (tuple(dims.get(s) for s in in_labels), len(set(in_labels)), len(out_labels))
            if bound != (cpmap.in_dims, len(in_labels), len(cpmap.out_dims)):
                raise ValueError(f"recovery map {op.map_id!r} on dims {cpmap.in_dims} does not "
                                 f"fit its binding {tuple(in_labels)} -> {tuple(out_labels)}")
            state.recover(cpmap, in_labels, out_labels)
    return state


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


# Columns: the +1 and -1 eigenvectors of Pauli X, Y and Z, one basis per row
_PAULI_BASES = np.stack([
    np.column_stack(kets)
    for kets in ((KET_PLUS, KET_MINUS), (KET_PLUS_Y, KET_MINUS_Y), (KET_0, KET_1))
])
# The joint bases of (sigma_axis, sigma_axis*) on two qubits
_PAIR_BASES = np.stack([np.kron(u, u.conj()) for u in _PAULI_BASES])


def _basis_probabilities(rho: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Outcome distribution of ``rho`` in each basis: the diagonal of
    ``U^dag rho U``, one row per basis ``U``."""
    return np.einsum("aji,jk,aki->ai", bases.conj(), rho, bases).real


@cache
def _recovery_binding(map_id: str) -> tuple[CpMap, tuple, tuple]:
    """The recovery map an experiment circuit names, with the labels it
    reads and writes.

    Both maps are closed forms with no parameter, so each is built and
    validated once per process; its Choi matrix is read-only, as it is
    shared by every later run.
    """
    if map_id == "r1":
        binding = _r1_register_map(), ("X",), ("Ap",)
    else:
        from .gallery import recovery_map_r3

        binding = recovery_map_r3(), ("X", "q1"), ("Ap", "B")
    binding[0].choi.flags.writeable = False
    return binding


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
    map_id = next(op.map_id for op in circuit.ops if isinstance(op, Recovery))
    state = _evolve(circuit, {map_id: _recovery_binding(map_id)}, noise)
    ideal = _ideal_state(exp_id)
    # the recovered subsystems, which the ideal state names
    keep = sorted(state.index(s) for s in ideal.labels)
    m, dims = _in_order(state.rho, state.dims, keep)
    final = DensityOperator(m, dims, tuple(state.labels[i] for i in keep))
    rng = np.random.default_rng([int(seed), int(exp_id)])
    if exp_id <= 4:
        keys, bases, outcomes = ("X", "Y", "Z"), _PAULI_BASES, ("0", "1")
    else:
        keys, bases, outcomes = ("XX", "YY*", "ZZ"), _PAIR_BASES, ("00", "01", "10", "11")
    tables = {}
    for key, probs in zip(keys, _basis_probabilities(final.matrix, bases)):
        probs = flip_distribution(probs, noise.readout_flip)
        tables[key] = sample_distribution(probs, outcomes, shots, rng)
    bloch = {}
    if exp_id <= 4:
        bloch_ideal = (float(np.trace(GATES[a] @ ideal.matrix).real) for a in ("x", "y", "z"))
        bloch = dict(bloch_estimate=bloch_tomography(tables), bloch_ideal=tuple(bloch_ideal))
    return ExperimentResult(
        experiment=exp_id, shots=shots, seed=int(seed), noise=noise,
        tables=tables, final_state=final, ideal_state=ideal, **bloch,
    )
