"""Density-matrix simulator of the paper's six circuit experiments, with shot
sampling and optional noise.

Each experiment is a fixed private program: the qubits it starts from in
|0...0>, a tuple of steps, and its ideal output state; the number of qubits
it recovers, one or two, names its shot tables and their outcomes.  Every
step is one Kraus set from the subsystems it reads to those it writes, and
the kind of noise that weights it.  A gate and the depolarizing noise on
its qubits form one set: every Pauli product on those qubits times the
gate, weighted by the noise.  A measurement copies the computational outcome into a
classical register with the operators ``|m>|m><m|`` on the target, the
readout flip folded into the same set; the register is a decohered
subsystem, so the recovery conditioned on it is exact.  A recovery is one
of the closed-form Kraus stacks of :mod:`eurqsi.gallery`, r1 on the
register alone or r3 on the register and B, and the last step traces out
every subsystem the ideal state lacks with the bras ``<k|``; neither is
weighted by noise.

Every subsystem a program holds is a qubit, and where each one sits before
each step is fixed by the program, so the layout is done once, when the
program is built, by :func:`_laid_out`.  Each step stores its Kraus set as
operators on the whole state (:func:`~eurqsi.linalg._local_operators`),
which also bring the subsystems it writes to the front, as
:func:`~eurqsi.linalg._local_stack` does.  A run scales each stored stack
by its noise amplitudes and applies it as ``(ops @ rho @ ops^dag).sum(0)``,
two batched matmuls, and tracks no label: the last step leaves the ideal
state's subsystems in its order.

:func:`run_experiment` checks its arguments before any step, validates the
one final state and reads every shot table from it in one pass: every
outcome distribution of every basis by one matmul of a readout matrix with
vec(rho), the readout flips on the bit axes of every row at once, and one
multinomial call that draws the rows in order.  The drawn counts are
checked as one array, non-negative integers with every row summing to the
shots, which is what :class:`ShotTable` checks of one table, so the three
tables are built from the checked rows with no further check.  Shots are
sampled from the exact final distribution; there is no per-shot
re-execution.

Only the protocol's fixed data are built at import: the gates times their
Pauli products, the trace operators, each step's laid-out operators, the
readout matrix of each register width, and the ideal states and Bloch
vectors, the states through the validating constructor.  The programs
are module constants that no caller builds, so their steps are laid out
and not checked: the tests pin each one's data, every step
trace-preserving, so every gate unitary, and the last step ending on the
ideal state's subsystems.  Every shared array is read-only.  A run
computes its noise weights and keeps nothing.

Noise model: symmetric depolarizing with strength ``depolarizing_p`` on
every qubit a gate touches, plus a classical bit flip with probability
``readout_flip`` on every recorded or sampled measurement bit.  Device
calibration data is not modeled; noisy results are model-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gallery import _R1_KRAUS, _R3_KRAUS
from .linalg import _frozen, _integer_argument, _integers, _local_operators
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


# The types a noise parameter may have: Python's or numpy's ints and floats
_REAL_SCALARS = (int, float, np.integer, np.floating)


@dataclass(frozen=True)
class NoiseSpec:
    """Depolarizing strength per gate and classical readout flip probability."""

    depolarizing_p: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self):
        for name in ("depolarizing_p", "readout_flip"):
            value = getattr(self, name)
            # only a real scalar: float() would read True as 1.0, "0.5" or
            # b"0.5" as 0.5, and a 0-d array as its entry
            if isinstance(value, bool) or not isinstance(value, _REAL_SCALARS):
                raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
            # compared before float(), which overflows on a huge int
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
            object.__setattr__(self, name, float(value))


NOISELESS = NoiseSpec()

# The most shots one run draws: numpy's multinomial counts are int64.
MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True)
class ShotTable:
    """Empirical outcome counts with binomial standard errors."""

    counts: dict
    shots: int

    def __post_init__(self):
        keys = [str(k) for k in self.counts]
        if len(set(keys)) != len(keys):
            repeated = next(k for k in keys if keys.count(k) > 1)
            raise ValueError(f"outcome {repeated!r} is given by more than one key")
        (shots,) = _integers([self.shots], "shots")
        counts = dict(zip(keys, _integers(self.counts.values(), "counts")))
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "shots", shots)
        if shots < 1 or any(v < 0 for v in counts.values()):
            raise ValueError("shots must be positive and counts non-negative")
        if sum(counts.values()) != shots:
            raise ValueError("counts do not sum to shots")

    @classmethod
    def _from_checked(cls, counts: dict, shots: int) -> "ShotTable":
        """The table of ``counts``, str outcomes to ints, and the int
        ``shots``, built with no further check: the caller has checked
        them as :meth:`__post_init__` would, as :func:`_count_rows` does."""
        table = object.__new__(cls)
        object.__setattr__(table, "counts", counts)
        object.__setattr__(table, "shots", shots)
        return table

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

# |m>|m xor f><m| for f = 0, 1 (slowest) and m = 0, 1: the target keeps the
# outcome and the register, the second factor, receives a copy of it,
# flipped when f is 1
_COPIES = _frozen(np.array([np.outer(np.kron(np.eye(2)[m], np.eye(2)[m ^ f]), np.eye(2)[m])
                            for f in (0, 1) for m in (0, 1)], dtype=complex))


class _Step(NamedTuple):
    """The Kraus set ``kraus``, a ``(k, 2**len(writes), 2**len(reads))``
    stack, from the subsystems ``reads`` to the new ones ``writes``.
    ``noise`` weights it: "depolarizing" on each qubit of a gate, whose
    first operator is the gate itself; "readout" on a measurement's copy,
    then its flipped copy; or None.  ``ops`` is the stack on the whole
    state, laid out by :func:`_laid_out`.  Nothing checks a step: the six
    programs are constants, and the tests pin their data."""

    reads: tuple[str, ...]
    writes: tuple[str, ...]
    kraus: np.ndarray
    noise: str | None = None
    ops: np.ndarray | None = None


class _Program(NamedTuple):
    """One experiment: ``qubits`` qubits in |0...0>, its laid-out steps,
    and the ideal state of the recovered subsystems, which the steps end
    on, with its Bloch vector (1-4)."""

    qubits: int
    steps: tuple
    ideal: DensityOperator
    bloch_ideal: tuple[float, float, float] | None


def _gate(unitary: np.ndarray, *qubits: str) -> _Step:
    return _Step(qubits, qubits, _frozen(_PAULI_PRODUCTS[len(qubits)] @ unitary), "depolarizing")


def _measure(qubit: str, register: str) -> _Step:
    """A computational-basis measurement of ``qubit`` copied into ``register``."""
    return _Step((qubit,), (qubit, register), _COPIES, "readout")


def _discard(*subsystems: str) -> _Step:
    """The partial trace over ``subsystems``: the bras ``<k|`` on them."""
    n = 2 ** len(subsystems)
    return _Step(subsystems, (), _frozen(np.eye(n, dtype=complex).reshape(n, 1, n)))


def _evolve(rho: np.ndarray, steps, noise: NoiseSpec) -> np.ndarray:
    """The matrix of the laid-out ``steps`` run from ``rho``, laid out as
    the first step expects: one Kraus step each, no label tracked.

    A gate's stored stack is scaled by the amplitude of each Pauli product
    in depolarizing of strength p on each of its qubits, the first qubit's
    index slowest, or is the gate alone without noise; a measurement's by
    the readout flip, or is the copy alone; any other stack is applied as
    it is.  The amplitudes are computed once per run, for each gate arity.
    """
    p, q = noise.depolarizing_p, noise.readout_flip
    paulis = flips = None
    if p:
        one = np.sqrt([1.0 - 3.0 * p / 4.0, p / 4.0, p / 4.0, p / 4.0])
        paulis = {1: one.reshape(-1, 1, 1), 2: np.multiply.outer(one, one).reshape(-1, 1, 1)}
    if q:
        flips = np.sqrt([1.0 - q, 1.0 - q, q, q]).reshape(-1, 1, 1)
    for step in steps:
        ops = step.ops
        if step.noise == "depolarizing":
            ops = ops[:1] if paulis is None else paulis[len(step.reads)] * ops
        elif step.noise == "readout":
            ops = ops[:2] if flips is None else flips * ops
        rho = (ops @ rho @ ops.conj().transpose(0, 2, 1)).sum(axis=0)
    return rho


def _laid_out(qubits: int, steps: tuple) -> tuple[tuple, tuple[str, ...]]:
    """``steps`` laid out for :func:`_evolve` from qubits ``q0``, ``q1``,
    ..., and the labels of the final matrix.

    Each step leaves the subsystems it writes in front and the rest in
    their order, and gets its stack as read-only operators on the whole
    state before it.  A program is laid out when it is built, so a run
    lays out no step.
    """
    labels = [f"q{i}" for i in range(qubits)]
    laid_out = []
    for step in steps:
        positions = [labels.index(s) for s in step.reads]
        ops = _local_operators((2,) * len(labels), step.kraus, positions)
        laid_out.append(step._replace(ops=_frozen(ops)))
        labels = list(step.writes) + [s for s in labels if s not in step.reads]
    return tuple(laid_out), tuple(labels)


def _flipped(probs: np.ndarray, q: float) -> np.ndarray:
    """Each row of ``probs``, an outcome distribution over the same bits,
    after an independent flip of each bit with probability ``q``: one
    update of the whole array per bit axis."""
    if not q:
        return probs
    rows, k = probs.shape
    t = probs.reshape((rows,) + (2,) * (k.bit_length() - 1))
    for axis in range(1, t.ndim):
        t = (1.0 - q) * t + q * np.flip(t, axis)
    return t.reshape(rows, k)


def _shot_counts(probs: np.ndarray, shots: int, rng) -> np.ndarray:
    """Counts of ``shots`` draws from each row of ``probs``: one clip, snap
    and normalization of every row, and one multinomial call that draws
    the rows in order from ``rng``, as one call per row would."""
    probs = np.maximum(probs, 0.0)
    # numpy's binomial draw branches on p <= 1/2, so round-off of one ulp
    # either side of an exact 1/2 would swap the counts.  Sampling from the
    # probabilities snapped to a 1e-12 grid keeps the counts a function of
    # the distribution rather than of the order of floating-point operations.
    probs = np.round(probs / probs.sum(axis=1, keepdims=True), 12)
    return rng.multinomial(shots, probs / probs.sum(axis=1, keepdims=True))


def _count_rows(counts: np.ndarray, shots: int) -> list[list[int]]:
    """The rows of the integer array ``counts`` as lists of ints, once it is
    known that every entry is non-negative and every row sums to ``shots``:
    the checks :class:`ShotTable` makes on one table, made on every row in
    one pass, on Python ints, which cannot overflow."""
    rows = counts.tolist()
    if counts.dtype.kind not in "iu" or any(min(r) < 0 or sum(r) != shots for r in rows):
        raise ValueError(f"shot counts {rows} are not non-negative integers "
                         f"summing to {shots} in every row")
    return rows


def bloch_tomography(tables: dict) -> tuple[float, float, float]:
    """Bloch vector estimate from X/Y/Z-basis shot tables: on each axis,
    the frequency of "0" less that of "1".

    Counts read through a readout flip q estimate (1 - 2q) r, not the
    Bloch vector r of the measured state.  ``tables`` must hold an "X", a
    "Y" and a "Z" table, each with outcomes within {"0", "1"}, and all its
    tables the same shots; ``ValueError`` names the missing axis or the
    table that is not so.
    """
    for axis in ("X", "Y", "Z"):
        if axis not in tables:
            raise ValueError(f"tomography needs a {axis!r} table")
        if not tables[axis].counts.keys() <= {"0", "1"}:
            raise ValueError(f"the {axis!r} table has outcomes {sorted(tables[axis].counts)}, "
                             "not within {'0', '1'}")
    if len({t.shots for t in tables.values()}) != 1:
        raise ValueError("tomography tables have mismatched shot counts")
    return tuple(tables[a].frequency("0") - tables[a].frequency("1") for a in ("X", "Y", "Z"))


# Columns: the +1 and -1 eigenvectors of Pauli X, Y and Z, one basis per row
_PAULI_BASES = _frozen(np.stack([
    np.column_stack(kets)
    for kets in ((KET_PLUS, KET_MINUS), (KET_PLUS_Y, KET_MINUS_Y), (KET_0, KET_1))
]))
# The joint bases of (sigma_axis, sigma_axis*) on two qubits
_PAIR_BASES = _frozen(np.stack([np.kron(u, u.conj()) for u in _PAULI_BASES]))


def _readout(bases: np.ndarray) -> np.ndarray:
    """The matrix that reads every outcome probability of every basis off
    vec(rho): row (a, i) is ``conj(U_a[j, i]) U_a[k, i]`` at column (j, k),
    so its product with ``rho.reshape(-1)`` is ``<u_ai| rho |u_ai>``."""
    rows, d, k = bases.shape
    return _frozen(np.einsum("aji,aki->aijk", bases.conj(), bases).reshape(rows * k, d * d))


# The readout matrix of the Pauli bases (one recovered qubit) and of their
# pairs (two), by register width
_READOUTS = {1: _readout(_PAULI_BASES), 2: _readout(_PAIR_BASES)}
# The names of the three shot tables and of their outcomes, by register width
_TABLES = {1: (("X", "Y", "Z"), ("0", "1")), 2: (("XX", "YY*", "ZZ"), ("00", "01", "10", "11"))}


def _basis_probabilities(rho: np.ndarray, readout: np.ndarray) -> np.ndarray:
    """Outcome distribution of ``rho`` in each of the three bases of
    ``readout``, a matrix of :func:`_readout`: one row per basis, read by
    one matmul."""
    return (readout @ rho.reshape(-1)).real.reshape(3, -1)


def _program(qubits: int, steps: tuple, ideal: np.ndarray) -> _Program:
    """An experiment with its steps laid out and its ideal state on ``Ap``
    (and ``B``), the subsystems the steps end on, validated, once, here,
    and read-only; one recovered qubit gets its Bloch vector."""
    state = DensityOperator(ideal, (2,) * qubits, ("Ap", "B")[:qubits])
    _frozen(state.matrix)
    bloch = None
    if qubits == 1:
        bloch = tuple(float(np.trace(p @ state.matrix).real) for p in _PAULIS[1:])
    steps, _ = _laid_out(qubits, steps)
    return _Program(qubits, steps, state, bloch)


def _programs() -> dict[int, _Program]:
    """The six protocol variants.

    A Pauli-X measurement is a computational measurement conjugated by
    Hadamards; the register itself always reads the computational basis.
    Experiments 3 and 4 prepare |+_Y> = S H |0>, 2, 4 and 6 measure Z first,
    and 5 and 6 start from the Bell state of H and a CNOT.  Every program
    ends by tracing out the measured qubit and the Z register.
    """
    cnot = np.eye(4, dtype=complex)
    cnot[2:, 2:] = GATES["x"]
    h = _gate(GATES["h"], "q0")
    x_measurement = (h, _measure("q0", "X"), h)
    z_measurement = (_measure("q0", "Z"),)
    r1 = _Step(("X",), ("Ap",), _R1_KRAUS)
    r3 = _Step(("X", "q1"), ("Ap", "B"), _R3_KRAUS)
    x_only, after_z = (_discard("q0"),), (_discard("q0", "Z"),)
    plus, plus_y = (h,), (h, _gate(GATES["s"], "q0"))
    bell = (h, _gate(cnot, "q0", "q1"))
    mixed = maximally_mixed(2)
    correlated = 0.5 * (ket_bra(np.eye(4)[0]) + ket_bra(np.eye(4)[3]))
    return {
        1: _program(1, plus + x_measurement + (r1,) + x_only, ket_bra(KET_PLUS)),
        2: _program(1, plus + z_measurement + x_measurement + (r1,) + after_z, mixed),
        3: _program(1, plus_y + x_measurement + (r1,) + x_only, mixed),
        4: _program(1, plus_y + z_measurement + x_measurement + (r1,) + after_z, mixed),
        5: _program(2, bell + x_measurement + (r3,) + x_only, ket_bra(bell_phi())),
        6: _program(2, bell + z_measurement + x_measurement + (r3,) + after_z, correlated),
    }


_PROGRAMS = _programs()


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Shot tables plus exact and tomography-estimated output states.

    ``bloch_estimate`` (experiments 1-4) is read from the shot tables, so
    under readout flip q it estimates (1 - 2q) r, where r is the Bloch
    vector of ``final_state``: the flip blurs every sampled bit.
    """

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
        """Single-qubit state reconstructed from the Bloch estimate: under
        readout flip q, an estimate of the state of (1 - 2q) r, not of
        ``final_state``, whose Bloch vector is r."""
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


def run_experiment(
    exp_id: int,
    shots: int = 8192,
    noise: NoiseSpec = NOISELESS,
    seed: int = 0,
) -> ExperimentResult:
    """Simulate one protocol variant and sample its measurement statistics.

    Experiments 1-4 finish with Bloch tomography of the recovered qubit;
    5-6 with the three two-qubit correlation measurements.  Deterministic
    under ``seed``.  The experiment must be an integer in 1..6, ``shots`` an
    integer in 1..``MAX_SHOTS`` (2**63 - 1), ``noise`` a :class:`NoiseSpec`
    and ``seed`` a non-negative integer; ``ValueError`` names the first
    argument that is not, before any step runs.
    """
    exp_id = _integer_argument("experiment", exp_id, 1, 6, "an integer in 1..6")
    shots = _integer_argument("shots", shots, 1, MAX_SHOTS,
                              "a positive integer of at most 2**63 - 1")
    if not isinstance(noise, NoiseSpec):
        raise ValueError(f"noise must be a NoiseSpec, got {noise!r}")
    seed = _integer_argument("seed", seed, 0, np.inf, "a non-negative integer")
    program = _PROGRAMS[exp_id]
    rho = np.zeros((2 ** program.qubits,) * 2, dtype=complex)
    rho[0, 0] = 1.0
    ideal = program.ideal
    final = DensityOperator(_evolve(rho, program.steps, noise), ideal.dims, ideal.labels)
    keys, outcomes = _TABLES[program.qubits]
    probs = _basis_probabilities(final.matrix, _READOUTS[program.qubits])
    counts = _shot_counts(_flipped(probs, noise.readout_flip), shots,
                          np.random.default_rng([seed, exp_id]))
    tables = {key: ShotTable._from_checked(dict(zip(outcomes, row)), shots)
              for key, row in zip(keys, _count_rows(counts, shots))}
    bloch = {}
    if program.bloch_ideal is not None:
        bloch = dict(bloch_estimate=bloch_tomography(tables), bloch_ideal=program.bloch_ideal)
    return ExperimentResult(
        experiment=exp_id, shots=shots, seed=seed, noise=noise,
        tables=tables, final_state=final, ideal_state=ideal, **bloch,
    )
