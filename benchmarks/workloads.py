"""The benchmark's workloads: seeded inputs, one op per input, and the gate.

Inputs are raw numpy arrays (or experiment numbers) drawn with the
benchmark's own numpy code, so a change to the library's random helpers
cannot change what is measured.  ``build`` turns an input into fresh library
objects through the public constructors before every op, outside the timed
window; ``op`` is the timed call.  Every op's output passes a
correctness gate; a failed gate or an exception is a failed op, counted and
kept with its message, never filtered out.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np

# Gate thresholds.  The slack bounds are the checker's own contract; the
# duality and circuit bounds sit well above double-precision round-off.
SLACK_TOL = 1e-6
REFINEMENT_TOL = 1e-9
DUALITY_TOL = 1e-8
CIRCUIT_TD_TOL = 1e-9
CIRCUIT_MONOTONE_TOL = 1e-9

SHOTS = 8192
NOISE_LEVELS = (0.0, 0.05, 0.1, 0.2)


def import_library(root: Path):
    """Import ``eurqsi`` from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    eq = importlib.import_module("eurqsi")
    where = Path(eq.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"eurqsi imported from {where}, not from {src}")
    return eq


# --- input generation (own numpy code, no BLAS or LAPACK call) --------------

def _ginibre(rng, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _haar_unitary(rng, dim: int) -> np.ndarray:
    """Gram-Schmidt on a Ginibre matrix: QR with a positive diagonal in R."""
    cols = []
    for v in _ginibre(rng, dim, dim).T:
        for u in cols:
            v = v - np.sum(u.conj() * v) * u
        cols.append(v / np.sqrt(np.sum(np.abs(v) ** 2)))
    return np.stack(cols, axis=1)


# --- the gate -----------------------------------------------------------------

def report_problems(r, z_pvm) -> str | None:
    """Gate for one EurReport; ``None`` when every check holds.

    The duality H(Z|E) - H(Z|B) = -H(A|B) holds for a rank-one Z on a pure
    ABE state only, so it is checked when ``z_pvm.is_rank_one()``.
    """
    problems = []
    if not r.slack_refined >= -SLACK_TOL:
        problems.append(f"slack_refined {r.slack_refined:.3e} < -{SLACK_TOL:g}")
    if not r.slack_refined <= r.slack_original + REFINEMENT_TOL:
        problems.append(
            f"slack_refined {r.slack_refined:.3e} > slack_original {r.slack_original:.3e}"
        )
    if not 0.0 <= r.f <= 1.0:
        problems.append(f"f = {r.f!r} outside [0, 1]")
    if z_pvm.is_rank_one():
        residual = abs(r.h_ze - r.h_zb + r.h_ab)
        if not residual <= DUALITY_TOL:
            problems.append(f"|H(Z|E) - H(Z|B) + H(A|B)| = {residual:.3e}")
    return "; ".join(problems) or None


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def state_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity, independent of the library's implementation."""
    s = _sqrtm_psd(rho)
    vals = np.clip(np.linalg.eigvalsh(s @ sigma @ s), 0.0, None)
    return float(np.sum(np.sqrt(vals)) ** 2)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


# --- workloads ------------------------------------------------------------------

class _CheckWorkload:
    """Ops are check calls on fresh library objects built from raw arrays.

    An item is ``(g, x_u, z_u)``: a Ginibre factor ``g`` of shape
    (d_A d_B, d_A d_B), with rho_AB = g g^dag / tr and psi_ABE = vec(g) its
    purification, and the unitaries whose columns give X and Z (``None``
    for Pauli).  ``build`` makes new ``DensityOperator`` and ``Pvm``
    objects from them before every op, outside the timed window, as
    ``eurqsi fuzz`` does per trial, so no library object is seen twice.

    A fuzz op is one trial of both relations on one instance:
    ``check_bipartite(rho_ab)`` then ``check_tripartite(rho_abe)``.
    Alternating the two calls as separate ops would mix two latency modes
    half and half, putting p50 in the gap between them.
    """

    pool = 64
    dims = (2, 2)
    bipartite = True

    def __init__(self, eq):
        self.eq = eq

    def build(self, item):
        eq = self.eq
        g, x_u, z_u = item
        d_a, d_b = self.dims
        m = g @ g.conj().T
        rho_ab = (eq.DensityOperator(m / np.trace(m).real, self.dims, ("A", "B"))
                  if self.bipartite else None)
        rho_abe = eq.DensityOperator.from_vector(g, (d_a, d_b, g.shape[1]), ("A", "B", "E"))
        return (rho_ab, rho_abe, *self.pvms(x_u, z_u))

    def pvms(self, x_u, z_u):
        return tuple(self.eq.Pvm.from_basis(list(u.T)) for u in (x_u, z_u))

    def op(self, built):
        rho_ab, rho_abe, x_pvm, z_pvm = built
        reports = []
        if rho_ab is not None:
            reports.append(self.eq.check_bipartite(rho_ab, x_pvm, z_pvm))
        reports.append(self.eq.check_tripartite(rho_abe, x_pvm, z_pvm))
        return reports

    def check(self, built, result) -> str | None:
        z_pvm = built[3]
        problems = [report_problems(r, z_pvm) for r in result]
        return "; ".join(p for p in problems if p) or None

    def inputs(self, seed: int, count: int | None = None):
        rng = np.random.default_rng([seed, self.stream])
        d_a, d_b = self.dims
        return [self.draw(rng, d_a, d_b) for _ in range(count or self.pool)]

    def draw(self, rng, d_a, d_b):
        g = _ginibre(rng, d_a * d_b, d_a * d_b)
        return (g, _haar_unitary(rng, d_a), _haar_unitary(rng, d_a))


class FuzzQubit(_CheckWorkload):
    """Random rank-4 two-qubit states with Pauli X/Z (``eurqsi fuzz`` at 2x2)."""

    stream = 2

    def draw(self, rng, d_a, d_b):
        return (_ginibre(rng, d_a * d_b, d_a * d_b), None, None)

    def pvms(self, x_u, z_u):
        return self.eq.pauli_pvm("X"), self.eq.pauli_pvm("Z")


class FuzzQutrit(_CheckWorkload):
    """Random full-rank 3x3 states with Haar rank-one X and Z (``fuzz --dim 3``)."""

    pool = 32
    dims = (3, 3)
    stream = 3


class GeneralZ(_CheckWorkload):
    """d_A = 3, d_B = 2; Haar rank-one X and a two-outcome Z with a rank-2
    projector, so ``check_tripartite`` takes the rotated-Petz path."""

    pool = 16
    dims = (3, 2)
    stream = 6
    bipartite = False

    def pvms(self, x_u, z_u):
        wide, narrow = z_u[:, :2], z_u[:, 2:]
        z_pvm = self.eq.Pvm((wide @ wide.conj().T, narrow @ narrow.conj().T))
        return self.eq.Pvm.from_basis(list(x_u.T)), z_pvm


class Circuits:
    """``run_experiment`` 1-6 x depolarizing p, exact states gated.

    Items run experiment-major with p ascending, so each experiment's noise
    sweep is contiguous and the gate can compare it with the previous p.
    """

    def __init__(self, eq):
        self.eq = eq
        self._last = {}

    def inputs(self, seed: int, count: int | None = None):
        rng = np.random.default_rng([seed, 7])
        grid = [(e, p) for e in range(1, 7) for p in NOISE_LEVELS]
        grid = grid[: count or len(grid)]
        return [(e, p, int(s)) for (e, p), s in zip(grid, rng.integers(0, 2**31, len(grid)))]

    def build(self, item):
        return item

    def op(self, item):
        exp_id, p, seed = item
        return self.eq.run_experiment(
            exp_id, shots=SHOTS, noise=self.eq.NoiseSpec(depolarizing_p=p), seed=seed
        )

    def check(self, item, result) -> str | None:
        exp_id, p, _ = item
        final, ideal = result.final_state, result.ideal_state
        if final.dims != ideal.dims or final.labels != ideal.labels:
            return f"experiment {exp_id}: final {final.labels} vs ideal {ideal.labels}"
        f = state_fidelity(final.matrix, ideal.matrix)
        prev_p, prev_f = self._last.get(exp_id, (None, None))
        self._last[exp_id] = (p, f)
        if p == 0.0:
            td = trace_distance(final.matrix, ideal.matrix)
            if not td <= CIRCUIT_TD_TOL:
                return f"experiment {exp_id}: noiseless trace distance {td:.3e}"
            return None
        if prev_p is not None and prev_p < p and not f <= prev_f + CIRCUIT_MONOTONE_TOL:
            return f"experiment {exp_id}: fidelity rose from {prev_f:.12f} (p={prev_p}) to {f:.12f} (p={p})"
        return None


WORKLOADS = {
    "fuzz-qubit": FuzzQubit,
    "fuzz-qutrit": FuzzQutrit,
    "general-z": GeneralZ,
    "circuits": Circuits,
}
