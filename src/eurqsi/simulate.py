"""Density-matrix simulator of the paper's six circuit experiments, with shot
sampling and optional noise.

Each experiment is a fixed private program: the qubits it starts from in
|0...0>, a tuple of gate, measure and recover steps, and its ideal output
state.  A gate or a measurement is one Kraus step, one call of the
operator-stack kernel :func:`~eurqsi.linalg._local_stack` on the subsystems
it touches, summed; the kernel leaves those subsystems in front, and the
labels are permuted to match, so no step puts a subsystem back.  A gate and
the depolarizing noise on its qubits form one Kraus set: every Pauli
product on those qubits times the gate, weighted by the noise.  A
measurement copies the computational outcome into a classical register
with the operators ``|m>|m><m|`` on the target, the readout flip folded
into the same set; the register is a decohered subsystem, so the recovery
conditioned on it is exact.  A recovery is its map's Choi matrix: one
:func:`~eurqsi.linalg._in_order` puts the subsystems it reads in front, and
one Choi contraction (:meth:`~eurqsi.recovery.CpMap._apply`) replaces them
by the map's outputs and carries the rest along.

:func:`run_experiment` checks its arguments before any step, reduces the
final state with one :func:`~eurqsi.linalg._in_order` straight to the ideal
state's subsystems and label order, validates that one state and reads
every shot table from it through constant basis matrices.  Shots are
sampled from the exact final distribution; there is no per-shot
re-execution.

Only the protocol's fixed data are built at import: the gates times their
Pauli products, the two recovery maps, and the ideal states and Bloch
vectors, the states through the validating constructor.  Each program's
steps are checked once, when it is built, so a run checks no step.  Every
shared array is read-only.  A run computes its noise weights and keeps
nothing.

Noise model: symmetric depolarizing with strength ``depolarizing_p`` on
every qubit a gate touches, plus a classical bit flip with probability
``readout_flip`` on every recorded or sampled measurement bit.  Device
calibration data is not modeled; noisy results are model-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .gallery import recovery_map_r3
from .linalg import _in_order, _integers, _local_stack
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


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only: it is shared by every run."""
    a.flags.writeable = False
    return a


GATES = {
    name: _frozen(np.array(m, dtype=complex))
    for name, m in (
        ("i", [[1, 0], [0, 1]]),
        ("x", [[0, 1], [1, 0]]),
        ("y", [[0, -1j], [1j, 0]]),
        ("z", [[1, 0], [0, -1]]),
        ("h", np.array([[1, 1], [1, -1]]) / np.sqrt(2)),
        ("s", [[1, 0], [0, 1j]]),
    )
}


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
        keys = [str(k) for k in self.counts]
        (shots,) = _integers([self.shots], "shots")
        counts = dict(zip(keys, _integers(self.counts.values(), "counts")))
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "shots", shots)
        if shots < 1 or any(v < 0 for v in counts.values()):
            raise ValueError("shots must be positive and counts non-negative")
        if sum(counts.values()) != shots:
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


_PAULIS = _frozen(np.stack([GATES[a] for a in ("i", "x", "y", "z")]))
# Every product of one Pauli per qubit on one and on two qubits, the first
# qubit's index slowest; the identity product comes first.
_PAULI_PRODUCTS = {
    1: _PAULIS,
    2: _frozen(np.stack([np.kron(a, b) for a in _PAULIS for b in _PAULIS])),
}

# |m>|m><m| for m = 0, 1: the target keeps the outcome and the register,
# the second factor, receives a copy of it; then the same with the copy flipped
_COPY = _frozen(np.stack([np.outer(np.kron(e, e), e) for e in np.eye(2, dtype=complex)]))
_FLIPPED_COPY = _frozen(np.stack([np.outer(np.kron(e, e[::-1]), e)
                                  for e in np.eye(2, dtype=complex)]))


class _Gate(NamedTuple):
    """A gate on ``qubits``, controls first.  ``kraus`` holds every Pauli
    product on those qubits times the gate; the first is the gate itself."""

    qubits: tuple[str, ...]
    kraus: np.ndarray

    @property
    def reads(self) -> tuple[str, ...]:
        return self.qubits

    writes = reads


class _Measure(NamedTuple):
    """A computational-basis measurement of ``qubit`` copied into ``register``."""

    qubit: str
    register: str

    @property
    def reads(self) -> tuple[str, ...]:
        return (self.qubit,)

    @property
    def writes(self) -> tuple[str, ...]:
        return (self.qubit, self.register)


class _Recover(NamedTuple):
    """``cpmap`` on the subsystems ``reads``, whose outputs are named ``writes``."""

    cpmap: CpMap
    reads: tuple[str, ...]
    writes: tuple[str, ...]


class _Program(NamedTuple):
    """One experiment: ``qubits`` qubits in |0...0>, its steps, and the
    ideal state of the recovered subsystems with its Bloch vector (1-4)."""

    qubits: int
    steps: tuple
    ideal: DensityOperator
    bloch_ideal: tuple[float, float, float] | None


def _gate(unitary: np.ndarray, *qubits: str) -> _Gate:
    n = 2 ** len(qubits)
    if unitary.shape != (n, n) or not np.allclose(unitary.conj().T @ unitary, np.eye(n)):
        raise ValueError(f"a gate on {qubits} must be a {n}x{n} unitary")
    return _Gate(qubits, _frozen(_PAULI_PRODUCTS[len(qubits)] @ unitary))


def _gate_kraus(gate: _Gate, p: float) -> np.ndarray:
    """Kraus set of ``gate`` followed by symmetric depolarizing of strength
    ``p`` on each of its qubits; the gate alone when ``p`` is 0."""
    if p == 0.0:
        return gate.kraus[:1]
    one = np.sqrt([1.0 - 3.0 * p / 4.0, p / 4.0, p / 4.0, p / 4.0])
    weights = reduce(np.multiply.outer, [one] * len(gate.qubits)).ravel()
    return weights[:, None, None] * gate.kraus


def _measure_kraus(q: float) -> np.ndarray:
    """Kraus operators ``|m>|m xor f><m|`` of a qubit measurement whose
    register bit ``f`` flips with probability ``q``."""
    if q == 0.0:
        return _COPY
    return np.concatenate([np.sqrt(1.0 - q) * _COPY, np.sqrt(q) * _FLIPPED_COPY])


def _evolve(qubits: int, steps, noise: NoiseSpec) -> tuple[np.ndarray, list[str]]:
    """The final matrix and labels of ``steps`` run from |0...0> on qubits
    ``q0``, ``q1``, ...: one Kraus or Choi step each.

    Every subsystem of the six programs, register and recovered output
    included, is a qubit, so the dims are always ``(2,) * len(labels)``.
    Each step leaves the subsystems it writes in front and the rest in
    their order.
    """
    labels = [f"q{i}" for i in range(qubits)]
    rho = np.zeros((2 ** qubits, 2 ** qubits), dtype=complex)
    rho[0, 0] = 1.0
    for step in steps:
        dims = (2,) * len(labels)
        positions = [labels.index(s) for s in step.reads]
        rest = [i for i in range(len(labels)) if i not in positions]
        if isinstance(step, _Recover):
            rho = step.cpmap._apply(_in_order(rho, dims, positions + rest)[0])
        else:
            kraus = (_gate_kraus(step, noise.depolarizing_p) if isinstance(step, _Gate)
                     else _measure_kraus(noise.readout_flip))
            rho = _local_stack(rho, dims, kraus, positions).sum(axis=0)
        labels = list(step.writes) + [labels[i] for i in rest]
    return rho, labels


def _checked(qubits: int, steps: tuple) -> tuple:
    """``steps``, once it is known that :func:`_evolve` can run them from
    qubits ``q0``, ``q1``, ...: each step reads distinct subsystems that are
    there, a recovery as many qubits as its map takes and writes as many as
    it gives, and no step writes a subsystem twice or one it leaves alone.
    A program is checked when it is built, so a run checks no step.
    """
    labels = [f"q{i}" for i in range(qubits)]
    for i, step in enumerate(steps):
        reads, writes = step.reads, step.writes
        rest = [s for s in labels if s not in reads]
        if len(set(reads)) != len(reads) or len(rest) + len(reads) != len(labels):
            raise ValueError(f"step {i} reads {reads}: not distinct subsystems of {labels}")
        if len(set(writes)) != len(writes) or set(writes) & set(rest):
            raise ValueError(f"step {i} writes {writes}: not distinct and new beside {rest}")
        if isinstance(step, _Recover) and (step.cpmap.in_dims, step.cpmap.out_dims) != (
                (2,) * len(reads), (2,) * len(writes)):
            raise ValueError(f"step {i} binds {reads} -> {writes} to a map from "
                             f"{step.cpmap.in_dims} to {step.cpmap.out_dims}")
        labels = list(writes) + rest
    return steps


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
_PAULI_BASES = _frozen(np.stack([
    np.column_stack(kets)
    for kets in ((KET_PLUS, KET_MINUS), (KET_PLUS_Y, KET_MINUS_Y), (KET_0, KET_1))
]))
# The joint bases of (sigma_axis, sigma_axis*) on two qubits
_PAIR_BASES = _frozen(np.stack([np.kron(u, u.conj()) for u in _PAULI_BASES]))


def _basis_probabilities(rho: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Outcome distribution of ``rho`` in each basis: the diagonal of
    ``U^dag rho U``, one row per basis ``U``."""
    return np.einsum("aji,jk,aki->ai", bases.conj(), rho, bases).real


def _program(qubits: int, steps: tuple, ideal: np.ndarray) -> _Program:
    """An experiment with its ideal state on ``Ap`` (and ``B``), validated
    once, here, and read-only; one recovered qubit gets its Bloch vector."""
    labels = ("Ap", "B")[:qubits]
    state = DensityOperator(ideal, (2,) * qubits, labels)
    _frozen(state.matrix)
    bloch = None
    if qubits == 1:
        bloch = tuple(float(np.trace(p @ state.matrix).real) for p in _PAULIS[1:])
    return _Program(qubits, _checked(qubits, steps), state, bloch)


def _programs() -> dict[int, _Program]:
    """The six protocol variants.

    A Pauli-X measurement is a computational measurement conjugated by
    Hadamards; the register itself always reads the computational basis.
    Experiments 3 and 4 prepare |+_Y> = S H |0>, 2, 4 and 6 measure Z first,
    and 5 and 6 start from the Bell state of H and a CNOT.
    """
    cnot = np.eye(4, dtype=complex)
    cnot[2:, 2:] = GATES["x"]
    h = _gate(GATES["h"], "q0")
    x_measurement = (h, _Measure("q0", "X"), h)
    z_measurement = (_Measure("q0", "Z"),)
    r1 = (_Recover(_r1_register_map(), ("X",), ("Ap",)),)
    r3 = (_Recover(recovery_map_r3(), ("X", "q1"), ("Ap", "B")),)
    for rec in r1 + r3:
        _frozen(rec.cpmap.choi)
    plus, plus_y = (h,), (h, _gate(GATES["s"], "q0"))
    bell = (h, _gate(cnot, "q0", "q1"))
    mixed = maximally_mixed(2)
    correlated = 0.5 * (ket_bra(np.eye(4)[0]) + ket_bra(np.eye(4)[3]))
    return {
        1: _program(1, plus + x_measurement + r1, ket_bra(KET_PLUS)),
        2: _program(1, plus + z_measurement + x_measurement + r1, mixed),
        3: _program(1, plus_y + x_measurement + r1, mixed),
        4: _program(1, plus_y + z_measurement + x_measurement + r1, mixed),
        5: _program(2, bell + x_measurement + r3, ket_bra(bell_phi())),
        6: _program(2, bell + z_measurement + x_measurement + r3, correlated),
    }


_PROGRAMS = _programs()


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
        return 0.5 * (np.eye(2, dtype=complex) + x * _PAULIS[1] + y * _PAULIS[2] + z * _PAULIS[3])

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


def _integer_argument(name: str, value, low: int, high: float, what: str) -> int:
    """``value`` as an int, or ``ValueError`` naming the argument when it is
    not an integer (bools excluded) in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or not low <= value <= high:
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return int(value)


def run_experiment(
    exp_id: int,
    shots: int = 8192,
    noise: NoiseSpec = NOISELESS,
    seed: int = 0,
) -> ExperimentResult:
    """Simulate one protocol variant and sample its measurement statistics.

    Experiments 1-4 finish with Bloch tomography of the recovered qubit;
    5-6 with the three two-qubit correlation measurements.  Deterministic
    under ``seed``.  The experiment must be an integer in 1..6, ``shots`` a
    positive integer and ``seed`` a non-negative one; ``ValueError`` names
    the first argument that is not, before any step runs.
    """
    exp_id = _integer_argument("experiment", exp_id, 1, 6, "an integer in 1..6")
    shots = _integer_argument("shots", shots, 1, np.inf, "a positive integer")
    seed = _integer_argument("seed", seed, 0, np.inf, "a non-negative integer")
    program = _PROGRAMS[exp_id]
    rho, labels = _evolve(program.qubits, program.steps, noise)
    ideal = program.ideal
    m, dims = _in_order(rho, (2,) * len(labels), [labels.index(s) for s in ideal.labels])
    final = DensityOperator(m, dims, ideal.labels)
    rng = np.random.default_rng([seed, exp_id])
    if exp_id <= 4:
        keys, bases, outcomes = ("X", "Y", "Z"), _PAULI_BASES, ("0", "1")
    else:
        keys, bases, outcomes = ("XX", "YY*", "ZZ"), _PAIR_BASES, ("00", "01", "10", "11")
    tables = {}
    for key, probs in zip(keys, _basis_probabilities(final.matrix, bases)):
        probs = flip_distribution(probs, noise.readout_flip)
        tables[key] = sample_distribution(probs, outcomes, shots, rng)
    bloch = {}
    if program.bloch_ideal is not None:
        bloch = dict(bloch_estimate=bloch_tomography(tables), bloch_ideal=program.bloch_ideal)
    return ExperimentResult(
        experiment=exp_id, shots=shots, seed=seed, noise=noise,
        tables=tables, final_state=final, ideal_state=ideal, **bloch,
    )
