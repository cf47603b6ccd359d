"""Dense Hermitian diagonalization with deterministic phases.

Eigenvectors out of LAPACK carry arbitrary phases (and arbitrary mixing
inside degenerate subspaces), which makes downstream matrix elements
irreproducible between runs.  diagonalize() pins the gauge: in every
eigenvector the largest-magnitude component is made real and positive,
with ties broken by the lowest index.  A real symmetric operator keeps
real eigenvectors, whose gauge is then a sign.

EigenSystem.lowest() hands every caller its retained levels behind one
converged-levels check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .operators import ModelParams, OperatorMatrix, build_rabi

HERMITICITY_TOL = 1e-10    # relative Frobenius asymmetry diagonalize() accepts
DRIFT_TOL = 1e-6           # absolute level drift that still counts as converged
FOCK_MARGIN = 20           # extra Fock states certified_eigensystem compares against


@dataclass(frozen=True)
class EigenSystem:
    """Sorted eigenfrequencies and gauge-fixed eigenvectors.

    converged_levels counts the prefix of levels certified against the
    numerical residual (all of them, for a dense solve) or against Fock
    truncation when produced by certified_eigensystem.
    """

    frequencies: np.ndarray
    vectors: np.ndarray  # column n is the eigenvector of frequencies[n]
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


def diagonalize(op: OperatorMatrix) -> EigenSystem:
    """Full sorted eigensystem of a Hermitian operator.

    Rejects operators whose relative Frobenius asymmetry exceeds
    HERMITICITY_TOL instead of silently symmetrizing.  Operators with no
    imaginary part get real eigenvectors.
    """
    defect = op.hermiticity_defect()
    if defect > HERMITICITY_TOL:
        raise ValueError(
            f"operator '{op.label}' is not Hermitian: relative defect {defect:.3e}"
        )
    h = op.entries
    if np.iscomplexobj(h) and not np.any(h.imag != 0.0):
        h = h.real
    freqs, vecs = np.linalg.eigh(h)
    return EigenSystem(
        frequencies=freqs, vectors=_fix_phases(vecs), dim=op.dim, converged_levels=op.dim
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
    builder: Callable[[ModelParams], OperatorMatrix],
) -> tuple[ConvergenceReport, list[EigenSystem]]:
    """The drift report plus the eigensystem at each of its sorted sizes."""
    sizes = sorted(set(int(s) for s in fock_sizes))
    if len(sizes) < 2:
        raise ValueError("need at least two Fock sizes to measure drift")
    eigs = [diagonalize(builder(replace(params, n_fock=size))) for size in sizes]
    drifts = np.abs(np.diff(np.array([e.frequencies[:n_levels] for e in eigs]), axis=0))
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
    builder: Callable[[ModelParams], OperatorMatrix] = build_rabi,
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
    builder: Callable[[ModelParams], OperatorMatrix] = build_rabi,
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
    eig = eigs[report.fock_sizes.index(params.n_fock)]
    return replace(eig, converged_levels=levels)
