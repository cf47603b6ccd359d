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
levels, on just the photon rows they occupy: the tail past those rows is
folded into the leading block exactly (Loewdin partitioning at a fold
energy sigma, through a band Cholesky of the tail), and the inertia count
of the fold proves that no level below sigma is missed.  On the folded
block: one eigenvalues-only sweep (LAPACK dsbev), then inverse iteration
for the vectors.  Padded with zeros, they must meet a residual bound in the
whole band or the split grows; a solve that cannot meet it raises.  No
n x n reduction matrix is ever formed.  The dense branch, a full eigh,
serves only reference operators: the polaron-frame builder, which the
benchmark gate still solves, and the dense matrices of the test oracles.

certified_eigensystem() is the one production solve: it certifies the
Fock truncation from the retained vectors themselves, with no second
eigensolve.  Padded with zeros, each vector's residual in the operator at
n_fock + FOCK_MARGIN must be at most CERTIFY_TOL, or the call raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgeqrf, dorgqr, dpbtrf, dpbtrs, dsbev

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
    """Fixed pseudo-random start for inverse iteration, one row per level.

    Keyed on the operator's whole dimension: a solve on a leading block of
    it takes the leading columns, so every split shares one draw.
    """
    start = np.random.default_rng(0).standard_normal((count, dim))
    start.flags.writeable = False
    return start


def _first_split(bands: np.ndarray, count: int) -> tuple[int, float]:
    """Leading rows and fold energy sigma a band solve of `count` levels starts from.

    The Rabi model is read off the first entries of rabi_bands' layout
    (omega_c, omega_d, epsilon and g).  At omega_d = 0 its levels are the
    displaced Fock states D(+-alpha)|k>, alpha = |g| / (2 omega_c), at
    omega_c (k - alpha^2) -+ epsilon / 2; omega_d s_z moves each by at most
    omega_d / 2 (Weyl).  So level `count` lies at least omega_c below
    sigma = E - omega_c alpha^2, E = omega_c ceil(count / 2) +
    (|epsilon| + omega_d) / 2, and is made of k up to K = ceil(E / omega_c).
    The split is the first photon n past K + alpha^2 at which the leading
    term of <n|D(alpha)|K>,
        alpha^(n - K) e^(-alpha^2 / 2) sqrt(n! / K!) / (n - K)!,
    falls below RESIDUAL_TOL * eps, at two rows per photon.  This only picks
    the start: _band_eigenpairs checks every split, so any band, Rabi or
    not, is solved correctly; one that reads as no Rabi model starts unsplit.
    """
    dim = bands.shape[1]
    omega_c = bands[0, 2] - bands[0, 1]
    if bands.shape[0] != 3 or not omega_c > 0.0:
        return dim, np.inf
    energy = omega_c * -(-count // 2) + abs(bands[1, 0]) + 0.5 * abs(bands[0, 0] - bands[0, 1])
    alpha = abs(bands[2, 0]) / omega_c
    top = math.ceil(energy / omega_c)
    photons = np.arange(max(dim // 2, top + 1))
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(photons[1:]))))
    n = photons[top + 1 :]
    log_amp = (
        (n - top) * (math.log(alpha) if alpha > 0.0 else -np.inf) - 0.5 * alpha**2
        + 0.5 * (log_fact[n] - log_fact[top]) - log_fact[n - top]
    )
    fallen = log_amp < math.log(RESIDUAL_TOL * np.finfo(float).eps)
    past = np.flatnonzero((n > top + alpha**2) & fallen)
    rows = 2 * int(n[past[0]] + 1) if past.size else dim
    return rows, energy - omega_c * alpha**2


def _column_norms2(a: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", a, a)


def _rayleigh_ritz(vecs: np.ndarray, product: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Ritz vectors of the span of vecs (orthonormal columns), ascending, and H times them.

    product is H @ vecs.  Between levels split well above the rounding the
    projected matrix vecs^T H vecs is diagonal to rounding, so the rotation
    acts only inside near-degenerate clusters, where it picks the vectors
    that minimize the residuals (Parlett, The Symmetric Eigenvalue Problem,
    ch. 11).
    """
    _, rotation = np.linalg.eigh(vecs.T @ product)
    return vecs @ rotation, product @ rotation


def _inverse_iteration(
    bands: np.ndarray, freqs: np.ndarray, start: np.ndarray, eps_norm: float, tol: float
) -> np.ndarray:
    """Orthonormal eigenvectors of a symmetric band matrix at the given eigenvalues.

    The shifted copies H - w_i I are stacked as one block-diagonal general
    band matrix, so a single LU (dgbtrf) and a single solve (dgbtrs) per
    sweep serve every level.  After each solve the columns are
    orthonormalized in ascending order (QR), which separates near-degenerate
    pairs.  The QR leaves a pair split by about ten eps ||H|| rotated by up
    to its rounding, so a sweep that fails to lower the worst residual is
    followed by a Rayleigh-Ritz rotation of the vectors (_rayleigh_ritz);
    a converging solve lowers it every sweep and never pays for one.  The
    sweeps stop once every residual ||H v - w v|| is within tol;
    a solve that does not get there in MAX_SWEEPS raises instead of
    returning unconverged vectors.  The LU holds (3 * half-bandwidth + 1) *
    count * dim doubles.
    """
    half, dim = bands.shape[0] - 1, bands.shape[1]
    count = len(freqs)
    # general band storage: block b's H[i, j] - w_b delta_ij sits at lu[2 half + i - j, b dim + j]
    rows = 3 * half + 1
    lu = np.zeros((rows, count * dim), order="F")
    blocks = lu.T.reshape(count, dim, rows)
    # entries below eps * ||H|| are below the solve's rounding and are left
    # out: kept, a tiny coupling could win a pivot search against a near-zero
    # diagonal entry and mix a far level in, and a subnormal pivot would
    # overflow its multipliers; the zero pivots they leave are raised below
    diagonal = bands[0] - freqs[:, None]
    diagonal[np.abs(diagonal) < eps_norm] = 0.0
    coupling = np.where(np.abs(bands[1:]) < eps_norm, 0.0, bands[1:])
    blocks[:, :, 2 * half] = diagonal
    for k in range(1, half + 1):
        blocks[:, : dim - k, 2 * half + k] = coupling[k - 1, : dim - k]
        blocks[:, k:, 2 * half - k] = coupling[k - 1, : dim - k]
    lu, pivots, info = dgbtrf(lu, half, half, overwrite_ab=1)
    if info < 0:
        raise LinAlgError(f"dgbtrf rejected argument {-info}")
    # an exact eigenvalue leaves a zero pivot (info > 0): raise every pivot
    # below eps * ||H|| to that size, keeping its sign, so the solves stay finite
    u = lu[2 * half]
    small = np.abs(u) < eps_norm
    u[small] = np.copysign(eps_norm, u[small])
    rhs = start.reshape(-1, 1)
    worst = np.inf
    for _ in range(MAX_SWEEPS):
        solved, info = dgbtrs(lu, half, half, rhs, pivots)
        if info != 0:
            raise LinAlgError(f"dgbtrs rejected argument {-info}")
        packed, tau, _, _ = dgeqrf(solved.reshape(count, dim).T, overwrite_a=1)
        vecs, _, _ = dorgqr(packed, tau, overwrite_a=1)
        product = _band_matvec(bands, vecs)
        norms = _column_norms2(product - vecs * freqs)
        if np.max(norms) >= worst:
            vecs, product = _rayleigh_ritz(vecs, product)
            norms = _column_norms2(product - vecs * freqs)
        if np.all(norms <= tol * tol):
            return vecs
        worst = np.max(norms)
        rhs = vecs.T.reshape(-1, 1)
    raise LinAlgError(
        f"inverse iteration left residuals above {tol:.3e} after {MAX_SWEEPS} sweeps"
    )


def _band_eigenpairs(bands: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest `count` eigenpairs of a symmetric band matrix (lower storage).

    The photon-major band is split at row d, and the tail H22 past it is
    folded into the leading block H11 exactly (Loewdin partitioning, J.
    Math. Phys. 3, 969 (1962)).  At a fold energy sigma, H22 - sigma I is
    factored by band Cholesky (dpbtrf), which succeeds only if the tail has
    no eigenvalue below sigma; then the h x h Schur corner
    C = H12 (H22 - sigma I)^-1 H21 (h the half-bandwidth) is subtracted from
    the last rows of H11, giving the folded block F.  By Haynsworth's
    inertia additivity (Linear Algebra Appl. 1, 73 (1968)) F has exactly as
    many eigenvalues below sigma as H; at least `count` are required, so no
    level is missed.  C is positive semidefinite and grows with sigma, so
    each of F's eigenvalues below sigma is a lower bound on H's.

    F alone gets the eigenvalues-only sweep (LAPACK dsbev) and the stacked
    inverse iteration (_inverse_iteration).  Padded with zeros, its vectors
    must then meet RESIDUAL_TOL * eps * ||H|| in H itself, the boundary rows
    H21 v included.  ||H|| is replaced by the largest band entry, a lower
    bound on ||H||_2, so the check can only get tighter.  The split starts at
    _first_split and grows by what the failed check measured: past twice
    the depth at which the tail's Cholesky broke down; sigma one mean level
    spacing above F's level `count` when too few lie below it; or, when the
    boundary rows miss the bound, as many rows as the worst vector's mean
    decay from its peak takes to absorb the excess.  d = dim is the unsplit
    solve, with an empty tail.
    """
    half, dim = bands.shape[0] - 1, bands.shape[1]
    # the largest entry bounds ||H||_2 below; positive even for a zero band
    eps_norm = max(np.finfo(float).eps * np.max(np.abs(bands)), np.finfo(float).tiny)
    tol = RESIDUAL_TOL * eps_norm
    rows, sigma = _first_split(bands, count)
    while True:
        rows = min(max(rows, count, half), dim)
        if rows > dim - half:   # a tail shorter than the band saves nothing
            rows = dim
        block = bands[:, :rows]
        if rows < dim:
            tail = bands[:, rows:].copy()
            tail[0] -= sigma
            factor, info = dpbtrf(tail, lower=1, overwrite_ab=1)
            if info > 0:   # a level below sigma within the tail's first `info` rows
                rows += 2 * info
                continue
            # H21 is nonzero only in its first h rows and last h columns
            coupling = np.zeros((dim - rows, half))
            i, j = np.triu_indices(half)
            coupling[i, j] = bands[half + i - j, rows - half + j]
            solved, info = dpbtrs(factor, coupling, lower=1)
            if info != 0:
                raise LinAlgError(f"dpbtrs rejected argument {-info}")
            corner = coupling[:half].T @ solved[:half]
            block = block.copy()
            for k in range(half):
                block[k, rows - half : rows - k] -= np.diagonal(corner, -k)
        w, _, info = dsbev(block, compute_v=0, lower=1, overwrite_ab=0)
        if info != 0:
            raise LinAlgError(f"dsbev failed to converge (info={info})")
        if rows < dim and not w[count - 1] < sigma:
            sigma = w[count - 1] + max((w[count - 1] - w[0]) / count, eps_norm)
            continue
        freqs = w[:count]
        start = _start_vectors(count, dim)[:, :rows]
        vecs = _inverse_iteration(block, freqs, start, eps_norm, tol)
        if rows == dim:
            return freqs, vecs
        # the padded vectors' residual in H, through the h boundary rows of the tail
        padded = np.zeros((dim, count))
        padded[:rows] = vecs
        ext = rows + half
        residual = _band_matvec(bands[:, :ext], padded[:ext]) - padded[:ext] * freqs
        norms = np.einsum("ij,ij->j", residual, residual)
        worst = np.argmax(norms)
        if norms[worst] <= tol * tol:
            return freqs, padded
        # the worst vector falls from its peak to the boundary at some mean rate
        # per row; past the turning point it only falls faster, so that rate
        # carries it the residual's excess within the rows added
        amp = np.abs(vecs[:, worst])
        peak, edge = np.argmax(amp), np.max(amp[-half:])
        if not 0.0 < edge < amp[peak]:
            rows = dim
            continue
        log_excess = 0.5 * math.log(norms[worst] / (tol * tol))
        rows += max(half, math.ceil((rows - peak) * log_excess / math.log(amp[peak] / edge)))


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
    coupling out of photon N - 1.  A band solve folded at a split below
    N - 1 (_band_eigenpairs) leaves its vectors exactly zero from the split
    on, so there the added rows contribute nothing and the residual is the
    solver's own, which already includes the split's boundary rows.
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
