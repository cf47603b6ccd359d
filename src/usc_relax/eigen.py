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
a BandOperator and is solved for just those levels: one eigenvalues-only
sweep (LAPACK dsbev), then inverse iteration on the band for the vectors,
which must meet a residual bound or raise.  No n x n reduction matrix is
ever formed.  Dense operators, such as the polaron-frame reference builder,
go through a full eigh.  EigenSystem.lowest() hands every caller its
retained levels behind one converged-levels check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgeqrf, dorgqr, dsbev

from .operators import BandOperator, ModelParams, OperatorMatrix, rabi_bands

HERMITICITY_TOL = 1e-10    # relative Frobenius asymmetry diagonalize() accepts
DRIFT_TOL = 1e-6           # absolute level drift that still counts as converged
FOCK_MARGIN = 20           # extra Fock states certified_eigensystem compares against
RESIDUAL_TOL = 16.0        # band residual bound, in units of eps * ||H||
MAX_SWEEPS = 4             # inverse-iteration sweeps before a band solve gives up


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


def _band_matvec(bands: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """H @ vecs for a symmetric band matrix in lower storage."""
    out = bands[0][:, None] * vecs
    for k in range(1, len(bands)):
        sub = bands[k, :-k, None]
        out[k:] += sub * vecs[:-k]
        out[:-k] += sub * vecs[k:]
    return out


@lru_cache(maxsize=8)
def _start_vectors(count: int, dim: int) -> np.ndarray:
    """Fixed pseudo-random start for inverse iteration, one row per level."""
    start = np.random.default_rng(0).standard_normal((count, dim))
    start.flags.writeable = False
    return start


def _band_eigenpairs(bands: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest `count` eigenpairs of a symmetric band matrix (lower storage).

    The eigenvalues come from one eigenvalues-only sweep (LAPACK dsbev); the
    vectors from inverse iteration on the band itself.  The shifted copies
    H - w_i I are stacked as one block-diagonal general band matrix, so a
    single LU (dgbtrf) and a single solve (dgbtrs) per sweep serve every
    level.  After each solve the columns are orthonormalized in ascending
    order (QR), which separates near-degenerate pairs.  The sweeps stop once
    every residual ||H v - w v|| is within RESIDUAL_TOL * eps * ||H||; a
    solve that does not get there in MAX_SWEEPS raises instead of returning
    unconverged vectors.  The LU holds (3 * half-bandwidth + 1) * count * dim
    doubles.
    """
    half, dim = bands.shape[0] - 1, bands.shape[1]
    w, _, info = dsbev(bands, compute_v=0, lower=1, overwrite_ab=0)
    if info != 0:
        raise LinAlgError(f"dsbev failed to converge (info={info})")
    freqs = w[:count]
    # eps * ||H||_2, read off the full spectrum; positive even for a zero band
    eps_norm = max(np.finfo(float).eps * max(abs(w[0]), abs(w[-1])), np.finfo(float).tiny)
    tol = RESIDUAL_TOL * eps_norm
    # general band storage: block b's H[i, j] - w_b delta_ij sits at lu[2 half + i - j, b dim + j]
    rows = 3 * half + 1
    lu = np.zeros((rows, count * dim), order="F")
    blocks = lu.T.reshape(count, dim, rows)
    blocks[:, :, 2 * half] = bands[0] - freqs[:, None]
    for k in range(1, half + 1):
        blocks[:, : dim - k, 2 * half + k] = bands[k, : dim - k]
        blocks[:, k:, 2 * half - k] = bands[k, : dim - k]
    lu, pivots, info = dgbtrf(lu, half, half, overwrite_ab=1)
    if info < 0:
        raise LinAlgError(f"dgbtrf rejected argument {-info}")
    # an exact eigenvalue leaves a zero pivot (info > 0): raise every pivot
    # below eps * ||H|| to that size, keeping its sign, so the solves stay finite
    u = lu[2 * half]
    small = np.abs(u) < eps_norm
    u[small] = np.copysign(eps_norm, u[small])
    rhs = _start_vectors(count, dim).reshape(-1, 1)
    for _ in range(MAX_SWEEPS):
        solved, info = dgbtrs(lu, half, half, rhs, pivots)
        if info != 0:
            raise LinAlgError(f"dgbtrs rejected argument {-info}")
        packed, tau, _, _ = dgeqrf(solved.reshape(count, dim).T, overwrite_a=1)
        vecs, _, _ = dorgqr(packed, tau, overwrite_a=1)
        residual = _band_matvec(bands, vecs) - vecs * freqs
        if np.all(np.einsum("ij,ij->j", residual, residual) <= tol * tol):
            return freqs, vecs
        rhs = vecs.T.reshape(-1, 1)
    raise LinAlgError(
        f"inverse iteration left residuals above {tol:.3e} after {MAX_SWEEPS} sweeps"
    )


def diagonalize(op: OperatorMatrix | BandOperator, levels: int | None = None) -> EigenSystem:
    """Sorted lowest `levels` eigenpairs (all of them by default), gauge-fixed.

    A BandOperator is solved for those levels only (_band_eigenpairs), and
    its vectors are mapped back to the library basis.  A dense operator
    whose relative Frobenius asymmetry exceeds HERMITICITY_TOL is rejected
    instead of silently symmetrized; it gets a full solve, of which the
    first `levels` are kept.  Operators with no imaginary part get real
    eigenvectors.
    """
    count = op.dim if levels is None else levels
    if not 1 <= count <= op.dim:
        raise ValueError(f"levels={count} outside 1..{op.dim} for operator '{op.label}'")
    if isinstance(op, BandOperator):
        if not np.all(np.isfinite(op.bands)):
            raise ValueError(f"operator '{op.label}' has infs or NaNs in its bands")
        freqs, vecs = _band_eigenpairs(op.bands, count)
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
