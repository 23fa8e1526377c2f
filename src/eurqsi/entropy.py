"""Entropic functionals in base-2 logarithms with explicit support handling.

The relative entropy returns ``math.inf`` (never a float overflow) when the
first argument has weight outside the support of the second.

:func:`von_neumann` and :func:`conditional` take a :class:`DensityOperator`
and check the labels.  The checks in :mod:`eurqsi.relations` take their
spectra themselves, from batched eigensolves of the block stacks of
classical-quantum states, and reduce all six with one :func:`_entropies`
pass, of which :func:`entropy_of_spectrum` is the one-spectrum case.  Every
function here accepts what :class:`DensityOperator` accepts: spectra are
cut to their support by :func:`~eurqsi.linalg._on_support`, so round-off
negative eigenvalues never reach a log, and :func:`relative` rejects its
second argument only through :func:`~eurqsi.linalg._check_psd`.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .linalg import _check_psd, _on_support, as_matrix, herm_eig, partial_trace
from .states import DensityOperator

# Trace mass tolerated outside the second argument's support before the
# relative entropy is declared infinite.
SUPPORT_MASS_TOL = 1e-9


def entropy_of_spectrum(eigenvalues) -> float:
    """Shannon entropy in bits of a spectrum cut to its support, 0 log 0 := 0.
    An array of any shape is one spectrum: a block stack's eigenvalues are
    cut against the top of their union, as on the block-diagonal matrix."""
    return _entropies([np.asarray(eigenvalues, dtype=float)])[0]


def _entropies(spectra) -> list[float]:
    """:func:`entropy_of_spectrum` of each float array in ``spectra`` in one
    pass: each is cut against its own top, and x log x is summed by segment
    reductions over their concatenation."""
    sizes = [s.size for s in spectra]
    if 0 in sizes:  # reduceat would give an empty segment the next value
        full = iter(_entropies([s for s in spectra if s.size]) if any(sizes) else ())
        return [next(full) if n else 0.0 for n in sizes]
    vals = np.concatenate(spectra, axis=None)
    starts = list(accumulate(sizes[:-1], initial=0))
    tops = np.maximum(np.maximum.reduceat(vals, starts), 0.0)
    keep = _on_support(vals, np.repeat(tops, sizes))
    x = np.where(keep, vals, 1.0)
    # -0.0 adds nothing, so a spectrum with no support gives +0.0
    return (-np.add.reduceat(np.where(keep, x * np.log2(x), -0.0), starts)).tolist()


def von_neumann(rho: DensityOperator) -> float:
    """Von Neumann entropy in bits."""
    return _entropy(rho.matrix)


def conditional(rho: DensityOperator, cond_subsystems) -> float:
    """Conditional entropy H(rest | cond) = H(full) - H(cond), in bits."""
    if isinstance(cond_subsystems, str):
        cond_subsystems = [cond_subsystems]
    cond = list(cond_subsystems)
    if not cond:
        raise ValueError("conditioning subsystem list is empty")
    if set(cond) == set(rho.labels):
        raise ValueError("conditioning on every subsystem leaves nothing")
    keep = [rho.label_index(s) for s in cond]
    return _entropy(rho.matrix) - _entropy(partial_trace(rho.matrix, rho.dims, keep))


def _entropy(m: np.ndarray) -> float:
    """The kernel of :func:`von_neumann`: entropy in bits of the Hermitian
    matrix ``m``."""
    return entropy_of_spectrum(np.linalg.eigvalsh(m))


def relative(rho: DensityOperator | np.ndarray, sigma: np.ndarray) -> float:
    """Quantum relative entropy D(rho || sigma) in bits, or ``inf``.

    ``sigma`` only needs to be PSD (it may be unnormalized): it is rejected
    only below ``-1e-8 * max(1, top)``, where :class:`DensityOperator`
    rejects a state, and its support is cut by the one support cutoff, so a
    round-off negative eigenvalue never enters a log.  The two trace
    terms are evaluated in their own eigenbases; the cross term uses the
    overlap of ``rho`` with ``sigma``'s eigenvectors, which is exact in the
    commuting case and stable otherwise.
    """
    rho_m = rho.matrix if isinstance(rho, DensityOperator) else as_matrix(rho)
    sigma = as_matrix(sigma)
    if rho_m.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho_m.shape} vs {sigma.shape}")

    sig_vals, sig_vecs = herm_eig(sigma)
    _check_psd(sig_vals[-1], sig_vals[0])
    sig_mask = _on_support(sig_vals)

    # Weight of rho on the orthogonal complement of supp(sigma).
    overlaps = np.real(np.einsum("ij,jk,ki->i", sig_vecs.conj().T, rho_m, sig_vecs))
    off_support = float(np.clip(overlaps[~sig_mask], 0.0, None).sum())
    if off_support > SUPPORT_MASS_TOL:
        return math.inf

    tr_rho_log_rho = -entropy_of_spectrum(np.linalg.eigvalsh(rho_m))
    tr_rho_log_sig = float(np.sum(overlaps[sig_mask] * np.log2(sig_vals[sig_mask])))
    return tr_rho_log_rho - tr_rho_log_sig
