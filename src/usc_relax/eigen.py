"""Hermitian diagonalization with deterministic phases.

Eigenvectors out of LAPACK carry arbitrary phases (and arbitrary mixing
inside degenerate subspaces), which makes downstream matrix elements
irreproducible between runs.  diagonalize() pins the gauge: in every
eigenvector the largest-magnitude component is made real and positive,
with ties broken by the lowest index.  A real symmetric operator keeps
real eigenvectors, whose gauge is then a sign.  Inside an exactly
degenerate subspace no gauge rule fixes the basis, so there the vectors
depend on the solver (band or dense).

The truncation is two-tier: the master equation keeps only the lowest
m_levels eigenlevels, so callers ask diagonalize() for those levels alone.
Every production solve is the lab-frame Rabi Hamiltonian, which arrives as
a BandOperator and is solved for just those levels (LAPACK dsbevx).  Dense
operators, such as the polaron-frame reference builder, go through a full
eigh.  EigenSystem.lowest() hands every caller its retained levels behind
one converged-levels check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eig_banded

from .operators import BandOperator, ModelParams, OperatorMatrix, rabi_bands

HERMITICITY_TOL = 1e-10    # relative Frobenius asymmetry diagonalize() accepts
DRIFT_TOL = 1e-6           # absolute level drift that still counts as converged
FOCK_MARGIN = 20           # extra Fock states certified_eigensystem compares against


@dataclass(frozen=True)
class EigenSystem:
    """Sorted eigenfrequencies and gauge-fixed eigenvectors.

    converged_levels counts the prefix of levels certified against the
    numerical residual (every level solved for, by diagonalize) or against
    Fock truncation when produced by certified_eigensystem.
    """

    frequencies: np.ndarray  # the lowest levels solved for, ascending
    vectors: np.ndarray  # (dim, levels); column n is the eigenvector of frequencies[n]
    dim: int
    converged_levels: int

    def lowest(self, m_levels: int) -> tuple[np.ndarray, np.ndarray]:
        """Frequencies and vectors of the lowest m_levels, all of them converged."""
        if m_levels > self.converged_levels:
            raise ValueError(
                f"m_levels={m_levels} exceeds the {self.converged_levels} converged levels"
            )
        return self.frequencies[:m_levels], self.vectors[:, :m_levels]


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    mags = np.abs(vectors)
    cols = np.arange(vectors.shape[1])
    # np.argmax returns the first maximum, which is the tie-break we want
    lead = np.argmax(mags, axis=0)
    peak = mags[lead, cols]
    scale = np.ones(len(cols), dtype=vectors.dtype)
    np.divide(peak, vectors[lead, cols], out=scale, where=peak != 0.0)
    return vectors * scale


def diagonalize(op: OperatorMatrix | BandOperator, levels: int | None = None) -> EigenSystem:
    """Sorted lowest `levels` eigenpairs (all of them by default), gauge-fixed.

    A BandOperator is solved for those levels only, and its vectors are
    mapped back to the library basis.  A dense operator whose relative
    Frobenius asymmetry exceeds HERMITICITY_TOL is rejected instead of
    silently symmetrized; it gets a full solve, of which the first `levels`
    are kept.  Operators with no imaginary part get real eigenvectors.
    """
    count = op.dim if levels is None else levels
    if not 1 <= count <= op.dim:
        raise ValueError(f"levels={count} outside 1..{op.dim} for operator '{op.label}'")
    if isinstance(op, BandOperator):
        freqs, vecs = eig_banded(op.bands, lower=True, select="i", select_range=(0, count - 1))
        vecs = vecs[op.to_library]
    else:
        defect = op.hermiticity_defect()
        if defect > HERMITICITY_TOL:
            raise ValueError(
                f"operator '{op.label}' is not Hermitian: relative defect {defect:.3e}"
            )
        h = op.entries
        if np.iscomplexobj(h) and not np.any(h.imag != 0.0):
            h = h.real
        freqs, vecs = np.linalg.eigh(h)
        freqs, vecs = freqs[:count], vecs[:, :count]
    return EigenSystem(
        frequencies=freqs, vectors=_fix_phases(vecs), dim=op.dim, converged_levels=count
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-level frequency drift across a ladder of Fock truncations."""

    fock_sizes: tuple[int, ...]
    drifts: np.ndarray  # shape (len(fock_sizes) - 1, n_levels)
    converged_levels: int


def _drift_ladder(
    params: ModelParams,
    fock_sizes: Sequence[int],
    n_levels: int,
    builder: Callable[[ModelParams], OperatorMatrix | BandOperator],
) -> tuple[ConvergenceReport, list[EigenSystem]]:
    """The drift report plus the lowest n_levels at each of its sorted sizes."""
    sizes = sorted(set(int(s) for s in fock_sizes))
    if len(sizes) < 2:
        raise ValueError("need at least two Fock sizes to measure drift")
    eigs = [diagonalize(builder(replace(params, n_fock=size)), n_levels) for size in sizes]
    drifts = np.abs(np.diff(np.array([e.frequencies for e in eigs]), axis=0))
    final = drifts[-1]
    converged = 0
    for lvl in range(n_levels):
        if final[lvl] < DRIFT_TOL:
            converged = lvl + 1
        else:
            break
    report = ConvergenceReport(
        fock_sizes=tuple(sizes), drifts=drifts, converged_levels=converged
    )
    return report, eigs


def convergence_check(
    params: ModelParams,
    fock_sizes: Sequence[int],
    n_levels: int = 12,
    builder: Callable[[ModelParams], OperatorMatrix | BandOperator] = rabi_bands,
) -> ConvergenceReport:
    """Re-diagonalize at increasing n_fock and report eigenvalue drift.

    converged_levels is the largest prefix of levels whose drift between
    the two largest truncations stays below DRIFT_TOL (absolute, in the
    energy units of the Hamiltonian).
    """
    return _drift_ladder(params, fock_sizes, n_levels, builder)[0]


def certified_eigensystem(
    params: ModelParams,
    levels: int,
    builder: Callable[[ModelParams], OperatorMatrix | BandOperator] = rabi_bands,
) -> EigenSystem:
    """Diagonalize at params.n_fock and certify the lowest `levels` by drift.

    The drift is measured against params.n_fock + FOCK_MARGIN.
    Raises if the requested prefix is not converged at the stated truncation;
    callers should enlarge n_fock rather than trust drifting levels.  The
    returned eigensystem is the drift ladder's own solve at params.n_fock.
    """
    report, eigs = _drift_ladder(
        params, (params.n_fock, params.n_fock + FOCK_MARGIN), levels, builder
    )
    if report.converged_levels < levels:
        raise ValueError(
            f"only {report.converged_levels}/{levels} levels converged at "
            f"n_fock={params.n_fock}; increase the truncation"
        )
    return eigs[report.fock_sizes.index(params.n_fock)]
