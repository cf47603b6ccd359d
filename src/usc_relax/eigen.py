"""Hermitian diagonalization with deterministic phases.

Eigenvectors out of LAPACK carry arbitrary phases (and arbitrary mixing
inside degenerate subspaces), which makes downstream matrix elements
irreproducible between runs.  diagonalize() pins the gauge: in every
eigenvector the largest-magnitude component is made real and positive,
with ties broken by the lowest index.  A real symmetric operator keeps
real eigenvectors, whose gauge is then a sign.  Inside an exactly
degenerate subspace no gauge rule fixes the basis, so there the vectors
depend on the solver (band or dense).

The truncation is two-tier: the master equation keeps only the lowest M
eigenlevels, and an EigenSystem is exactly those levels.  diagonalize()
and certified_eigensystem() are where M is chosen; every consumer takes
it from the eigensystem.  Every production solve is the lab-frame Rabi
Hamiltonian, which arrives as a BandOperator and is solved for just those
levels: one eigenvalues-only sweep (LAPACK dsbev), then inverse iteration
on the band for the vectors, which must meet a residual bound or raise.
No n x n reduction matrix is ever formed.  The dense branch, a full eigh,
serves only reference operators: the polaron-frame builder, which the
benchmark gate still solves, and the dense matrices of the test oracles.

certified_eigensystem() is the one production solve: it certifies the
Fock truncation from the retained vectors themselves, with no second
eigensolve.  Padded with zeros, each vector's residual in the operator at
n_fock + FOCK_MARGIN must be at most CERTIFY_TOL, or the call raises.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgeqrf, dorgqr, dsbev

from .operators import BandOperator, ModelParams, OperatorMatrix, rabi_bands

HERMITICITY_TOL = 1e-10    # relative Frobenius asymmetry diagonalize() accepts
CERTIFY_TOL = 1e-6         # residual norm, hence level error, a certified level may carry
FOCK_MARGIN = 20           # extra Fock states of the operator the residuals are taken in
RESIDUAL_TOL = 16.0        # band residual bound, in units of eps * ||H||
MAX_SWEEPS = 4             # inverse-iteration sweeps before a band solve gives up


@dataclass(frozen=True)
class EigenSystem:
    """The retained levels: sorted eigenfrequencies and gauge-fixed eigenvectors."""

    frequencies: np.ndarray  # (M,) the lowest levels solved for, ascending
    vectors: np.ndarray  # (dim, M); column n is the eigenvector of frequencies[n]


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
    return EigenSystem(frequencies=freqs, vectors=_fix_phases(vecs))


def _padding_residuals(
    big: OperatorMatrix | BandOperator, eig: EigenSystem, kept: np.ndarray
) -> np.ndarray:
    """Per-level norm of big @ pad(v) - w pad(v), the retained levels' full residuals.

    kept lists, in order, the rows of big's library basis that the smaller
    truncation keeps; pad() places the vectors there, with zeros elsewhere.
    A band operator is multiplied in its band order, a dense one by its
    entries.
    """
    band = isinstance(big, BandOperator)
    padded = np.zeros((big.dim, len(eig.frequencies)), dtype=eig.vectors.dtype)
    padded[big.to_library[kept] if band else kept] = eig.vectors
    product = _band_matvec(big.bands, padded) if band else big.entries @ padded
    return np.linalg.norm(product - padded * eig.frequencies, axis=0)


def certified_eigensystem(
    params: ModelParams,
    levels: int,
    builder: Callable[[ModelParams], OperatorMatrix | BandOperator] = rabi_bands,
) -> EigenSystem:
    """The lowest `levels` at params.n_fock, certified by their own residuals.

    One solve, diagonalize(builder(params), levels).  Each retained vector,
    padded with zeros, is multiplied by the builder's operator at
    params.n_fock + FOCK_MARGIN, of which the solved operator is the leading
    block in every matter sector.  The residual norm bounds the distance
    from the level to the nearest eigenvalue of that larger operator, with
    no separation estimate needed (the Hermitian residual bound; Parlett,
    The Symmetric Eigenvalue Problem).  The whole residual is formed
    (_padding_residuals): within the block it is the solver's own,
    O(eps ||H||), and on the added rows, for rabi_bands, the g sqrt(N)/2
    coupling out of photon N - 1.
    Raises if any level's residual exceeds CERTIFY_TOL; callers should
    enlarge n_fock rather than trust those levels.  The certificate only
    accepts or refuses: the returned eigensystem is the solve itself.
    """
    eig = diagonalize(builder(params), levels)
    n_big = params.n_fock + FOCK_MARGIN
    sectors = np.arange(params.spin_n + 1)[:, None]
    kept = (sectors * n_big + np.arange(params.n_fock)).ravel()
    residuals = _padding_residuals(builder(replace(params, n_fock=n_big)), eig, kept)
    failed = np.count_nonzero(residuals > CERTIFY_TOL)
    if failed:
        raise ValueError(
            f"{failed}/{levels} levels have residuals above {CERTIFY_TOL:g} "
            f"(largest {residuals.max():.3e}) at g={params.g:g}, "
            f"epsilon={params.epsilon:g}, n_fock={params.n_fock}; "
            "increase the truncation"
        )
    return eig
