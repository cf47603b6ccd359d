"""Independent reference implementations used to freeze expected values.

Everything here deliberately avoids the code paths under test: displacement
matrices come from `scipy.linalg.expm`, double-well levels from a Numerov
shooting integration, from full-grid bisection of the finite-difference
matrix (`eigh_tridiagonal`) and from 80-bit Sturm multisection, dipole
emission rates from direct quadrature of the
displacement autocorrelation function, Lindblad generators and bath
couplings from dense Kronecker constructions, and band eigenvalues from
scipy's `eig_banded` (LAPACK dsbevx).  Slow and simple beats fast and shared.

The Fock-truncation drift ladder re-solves at larger cutoffs: it is the
independent cross-check of the library's one-solve residual certificate.

The dense extended Dicke builders live here too: the library has no
spin-N Hamiltonian yet, and these serve as references for the one it gets.
So do the dense operator world the library no longer ships: the Fock and
spin operators, the dense lab-frame Rabi matrix (the expansion of the band
the library solves), the M^2 x M^2 superoperator of a Liouvillian, the
Gibbs state, and a steady state taken from the kernel of the rate matrix.
So does the printed table of dressed-state transition elements, written
out by hand; the library reads them off its dressed ladder instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eig_banded, eigh_tridiagonal, expm
from scipy.optimize import brentq

from usc_relax import grwa
from usc_relax.dipole import RESIDUAL_TOL, WellParams, orient_levels, potential
from usc_relax.eigen import EigenSystem, diagonalize
from usc_relax.lindblad import boltzmann_weights
from usc_relax.operators import (
    BandOperator,
    ModelParams,
    OperatorMatrix,
    displacement_matrix,
    rabi_bands,
)

DRIFT_TOL = 1e-6   # absolute level drift that still counts as converged


class DegenerateSteadyStateError(RuntimeError):
    """The Liouvillian kernel is more than one-dimensional."""


def fock_ladder(n_fock: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Annihilation and creation operators on the truncated Fock space."""
    if n_fock < 2:
        raise ValueError(f"n_fock must be at least 2, got {n_fock}")
    a = np.zeros((n_fock, n_fock))
    idx = np.arange(1, n_fock)
    a[idx - 1, idx] = np.sqrt(idx)
    return (
        OperatorMatrix(dim=n_fock, entries=a, label="a"),
        OperatorMatrix(dim=n_fock, entries=a.T.copy(), label="a_dag"),
    )


def spin_operators(spin_n: int) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """(S_x, S_y, S_z) for spin N/2 in the basis m = N/2 ... -N/2 (descending)."""
    if spin_n < 1:
        raise ValueError(f"spin_n must be a positive integer, got {spin_n}")
    j = spin_n / 2.0
    m = j - np.arange(spin_n + 1)  # descending; index 0 is m = +j
    sz = np.diag(m).astype(complex)
    sp = np.zeros((spin_n + 1, spin_n + 1), dtype=complex)
    # <m+1|S_+|m> = sqrt(j(j+1) - m(m+1)); row index of m+1 is one above m.
    for col in range(1, spin_n + 1):
        mm = m[col]
        sp[col - 1, col] = math.sqrt(j * (j + 1) - mm * (mm + 1))
    sm = sp.conj().T
    sx = (sp + sm) / 2.0
    sy = (sp - sm) / 2.0j
    return tuple(
        OperatorMatrix(dim=spin_n + 1, entries=e, label=name)
        for e, name in ((sx, "S_x"), (sy, "S_y"), (sz, "S_z"))
    )


def build_rabi(params: ModelParams) -> OperatorMatrix:
    """Dense expansion of rabi_bands(params) in the library basis, a real matrix."""
    return dense_from_bands(rabi_bands(params))


def dense_from_bands(band: BandOperator) -> OperatorMatrix:
    """Dense expansion of a band operator in the library basis, a real matrix.

    Exactly symmetric: each band fills its lower and upper diagonal.
    """
    h = np.zeros((band.dim, band.dim))
    for k, diagonal in enumerate(band.bands):
        j = np.arange(band.dim - k)
        h[j + k, j] = h[j, j + k] = diagonal[: band.dim - k]
    order = band.to_library
    return OperatorMatrix(dim=band.dim, entries=h[np.ix_(order, order)], label=band.label)


def superoperator(lv) -> np.ndarray:
    """Dense (M^2, M^2) generator of a Liouvillian, row-major vec.

    The coherence decays sit on the diagonal; the populations' block (rows
    and columns i (M + 1)) adds the jump rates.
    """
    m = lv.m_levels
    lsup = np.diag(lv.coherence_rates.reshape(-1))
    pops = np.arange(m) * (m + 1)
    lsup[np.ix_(pops, pops)] += lv.rates
    return lsup


def gibbs_state(level_freqs: np.ndarray, temperature: float) -> np.ndarray:
    """Thermal density matrix on the retained levels (T = 0: ground projector)."""
    return np.diag(boltzmann_weights(level_freqs, temperature)).astype(complex)


def steady_state(lv) -> np.ndarray:
    """The stationary state from the null vector of the population generator W.

    No Gibbs formula and no detailed-balance assumption: the kernel of W is
    read off its singular values, those at most M eps ||W||_2 counting as
    zero (numpy's matrix_rank rule), and its one vector, normalized to unit
    trace, is the diagonal of the state.  A kernel of any other dimension
    raises; it is reported, never averaged over.
    """
    w = lv.population_generator
    _, sing, vh = np.linalg.svd(w)
    kernel = int(np.count_nonzero(sing <= len(w) * np.finfo(float).eps * sing[0]))
    if kernel != 1:
        raise DegenerateSteadyStateError(
            f"Liouvillian kernel dimension {kernel}; steady state not unique"
        )
    pops = vh[-1] / vh[-1].sum()
    return np.diag(pops).astype(complex)


def displacement_via_expm(x: float, n_fock: int) -> np.ndarray:
    """exp[x (a - a^dag)] built by exponentiating the truncated generator."""
    a = np.diag(np.sqrt(np.arange(1, n_fock, dtype=float)), k=1)
    return expm(x * (a - a.T))


def numerov_end(energy: float, x: np.ndarray, v: np.ndarray, mass: float) -> float:
    """Endpoint amplitude of a Numerov march started from psi(x0) = 0.

    A bound-state energy makes the marched solution decay into the right
    wall, so the endpoint amplitude changes sign across each eigenvalue.
    """
    dx = x[1] - x[0]
    f = 2.0 * mass * (v - energy)
    c = 1.0 - (dx * dx / 12.0) * f
    psi_prev, psi = 0.0, 1e-8
    for i in range(1, len(x) - 1):
        psi_next = ((12.0 - 10.0 * c[i]) * psi - c[i - 1] * psi_prev) / c[i + 1]
        psi_prev, psi = psi, psi_next
        if abs(psi) > 1e12:
            psi_prev *= 1e-12
            psi *= 1e-12
    return psi


def shooting_levels(
    x: np.ndarray,
    v: np.ndarray,
    mass: float,
    n_levels: int,
    e_top: float | None = None,
    n_scan: int = 2000,
) -> list[float]:
    """Lowest bound-state energies by sign-change bracketing plus brentq."""
    e_lo = float(v.min()) + 1e-9
    e_hi = e_top if e_top is not None else float(v.min()) + 8.0 * abs(v.min()) + 5.0
    es = np.linspace(e_lo, e_hi, n_scan)
    vals = [numerov_end(e, x, v, mass) for e in es]
    roots: list[float] = []
    for i in range(len(es) - 1):
        if vals[i] == 0.0:
            roots.append(float(es[i]))
        elif vals[i] * vals[i + 1] < 0:
            roots.append(
                brentq(numerov_end, es[i], es[i + 1], args=(x, v, mass), xtol=1e-13, rtol=1e-15)
            )
        if len(roots) >= n_levels:
            break
    return roots[:n_levels]


def well_matrix(p: WellParams, dtype=float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the double well's finite-difference matrix.

    T = kin L + diag(V), kin = 1 / (2 m dx^2) and V as float64 numbers; its
    diagonal 2 kin + V is summed in `dtype`.  In float64 that sum rounds
    by up to ulp(2 kin) (2e-9 at kin = 5e6), which moves levels by about
    1e-11; np.longdouble keeps it exact to 1e-19 relative.
    """
    x = p.grid()
    kin = 1.0 / (2.0 * p.mass * (x[1] - x[0]) ** 2)
    kin_t = np.asarray(kin, dtype=dtype)
    return 2 * kin_t + potential(x, p).astype(dtype), np.full(len(x) - 1, -kin_t)


def tridiagonal_levels(p: WellParams, n_levels: int) -> list[tuple[float, np.ndarray]]:
    """The well's lowest eigenpairs by full-grid bisection and inverse iteration.

    scipy's eigh_tridiagonal (LAPACK dstebz, then dstein) on the same
    matrix the library solves, vectors L2-normalized with the grid weight
    dx and signed by the library's orient_levels, which takes the residual
    bound of the library's solve.
    """
    diag, off = well_matrix(p)
    energies, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_levels - 1))
    tol = RESIDUAL_TOL * np.finfo(float).eps * (np.max(np.abs(diag)) + 2.0 * abs(off[0]))
    x = p.grid()
    vecs = orient_levels(vecs.T, energies, tol) / np.sqrt(x[1] - x[0])
    return [(float(e), psi) for e, psi in zip(energies, vecs)]


def sturm_counts(diag: np.ndarray, off: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Eigenvalues at or below each shift, by LDL^T Sturm counts in np.longdouble.

    The pivots d_i = (a_i - s) - e_(i-1)^2 / d_(i-1) of T - s I are formed
    for all shifts at once; the count is the number of negative pivots.  A
    pivot smaller than pivmin = tiny * max(1, e^2) is set to -pivmin, as in
    LAPACK dlaebz, which counts the shift itself and keeps e^2 / d finite.
    """
    a = diag.astype(np.longdouble)
    e2 = off.astype(np.longdouble) ** 2
    s = np.asarray(shifts, dtype=np.longdouble)
    pivmin = np.finfo(np.longdouble).tiny * max(np.longdouble(1.0), np.max(e2))
    pivot = a[0] - s
    count = np.zeros(s.shape, dtype=int)
    for i in range(len(a)):
        if i:
            pivot = (a[i] - s) - e2[i - 1] / pivot
        pivot = np.where(np.abs(pivot) < pivmin, -pivmin, pivot)
        count += pivot < 0.0
    return count


def sturm_levels(diag: np.ndarray, off: np.ndarray, guesses: np.ndarray) -> np.ndarray:
    """Levels 0, 1, ... of T in extended precision, from their float64 values `guesses`.

    Multisection on np.longdouble Sturm counts (sturm_counts): level i's
    bracket starts 64 eps ||T|| (float64 eps) either side of guesses[i],
    must hold level i by count, and is cut into 32 pieces per sweep, all
    levels at once, until it is no wider than 2 eps_longdouble ||T||.
    Returned as longdouble.
    """
    sections = 32
    norm = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off))
    ld_eps = np.finfo(np.longdouble).eps
    index = np.arange(len(guesses))
    half = np.longdouble(64.0 * np.finfo(float).eps * norm)
    lo = np.asarray(guesses, dtype=np.longdouble) - half
    hi = np.asarray(guesses, dtype=np.longdouble) + half
    ends = sturm_counts(diag, off, np.stack([lo, hi]))
    if np.any(ends[0] > index) or np.any(ends[1] <= index):
        raise ValueError("a guess is not within 64 eps ||T|| of its level")
    frac = np.arange(1, sections, dtype=np.longdouble) / sections
    while np.max(hi - lo) > 2 * ld_eps * norm:
        cuts = lo[:, None] + (hi - lo)[:, None] * frac
        counts = sturm_counts(diag, off, cuts)
        below = counts <= index[:, None]   # cuts below level i; monotone along each row
        k = below.sum(axis=1)
        rows = np.arange(len(index))
        lo = np.where(k > 0, cuts[rows, np.maximum(k - 1, 0)], lo)
        hi = np.where(k < sections - 1, cuts[rows, np.minimum(k, sections - 2)], hi)
    return (lo + hi) / 2


def dipole_rate_via_quadrature(
    omega: float,
    x: float,
    nbar: float,
    omega_c: float,
    gamma: float,
    omega_d: float,
    n_wells: int,
) -> float:
    """Emission rate from the displacement autocorrelation function.

    Integrates Re[(C(t) - |<D>|^2) e^{i omega t} e^{-gamma t/2}] directly,
    where C(t) for a thermal oscillator has the closed form used below.
    This never expands C(t) into the double Poisson ladder, so it checks
    that series construction end to end.
    """
    x2 = x * x
    static = np.exp(-x2 * (2.0 * nbar + 1.0))

    def corr(t: float) -> complex:
        th = omega_c * t
        return np.exp(-1j * x2 * np.sin(th) - x2 * (2.0 * nbar + 1.0) * (1.0 - np.cos(th))) - static

    def integrand(t: float, w: float) -> float:
        return (corr(t) * np.exp(1j * w * t) * np.exp(-gamma * t / 2.0)).real

    val, _ = quad(integrand, 0.0, 60.0 / gamma, args=(omega,), limit=4000)
    return 0.5 * omega_d**2 * n_wells * val


def coupling_operator(params: ModelParams, channel: str) -> np.ndarray:
    """Dense bath coupling on the product space, by Kronecker products.

    Cavity: 1 (x) (a - a^dag); dipole: S_x (x) 1, matter index slow.
    """
    if channel == "cavity":
        a, ad = fock_ladder(params.n_fock)
        return np.kron(np.eye(params.spin_n + 1), a.entries - ad.entries)
    sx = spin_operators(params.spin_n)[0].entries.real
    return np.kron(sx, np.eye(params.n_fock))


def dense_lindblad_generator(
    hamiltonian: np.ndarray, jumps: list[tuple[np.ndarray, float]]
) -> np.ndarray:
    """Row-major vectorized Lindblad generator via Kronecker products.

    vec(rho) ordering is row-major, so left multiplication A rho maps to
    kron(A, I) and right multiplication rho B maps to kron(I, B^T).
    """
    dim = hamiltonian.shape[0]
    eye = np.eye(dim)

    def left(a: np.ndarray) -> np.ndarray:
        return np.kron(a, eye)

    def right(b: np.ndarray) -> np.ndarray:
        return np.kron(eye, b.T)

    gen = -1j * (left(hamiltonian) - right(hamiltonian))
    for op, rate in jumps:
        opd = op.conj().T
        gen = gen + rate * (
            np.kron(op, op.conj()) - 0.5 * left(opd @ op) - 0.5 * right(opd @ op)
        )
    return gen


def apply_liouvillian(lv, rho: np.ndarray) -> np.ndarray:
    """d(rho)/dt of a Liouvillian for a density matrix in its retained eigenbasis.

    Coherences decay at their own rates; populations follow the Pauli rate
    matrix.  Read straight off the two blocks the Liouvillian stores.
    """
    out = lv.coherence_rates * rho
    np.fill_diagonal(out, lv.population_generator @ np.diag(rho))
    return out


def gap_via_general_eig(lv) -> float:
    """Relaxation gap from the general eigenvalues of the Pauli rate matrix.

    W = K - diag(G), with G the out-rates, goes through LAPACK dgeev with
    no symmetry assumed; the coherences add lam_ij = -(G_i + G_j)/2
    - i(w_i - w_j) for i != j.  The mode closest to zero is dropped and the
    largest remaining real part (ties: smallest |Im|) is the gap.
    """
    out = lv.rates.sum(axis=0)
    w = lv.level_freqs
    lam = -(out[:, None] + out[None, :]) / 2.0 - 1j * (w[:, None] - w[None, :])
    vals = np.concatenate([
        np.linalg.eigvals(lv.rates - np.diag(out)),
        lam[~np.eye(len(w), dtype=bool)],
    ])
    vals = vals[np.lexsort((np.abs(vals.imag), -vals.real))]
    return float(np.delete(vals, np.argmin(np.abs(vals)))[0].real)


def band_eigvals_via_dsbevx(op: BandOperator, levels: int) -> np.ndarray:
    """Lowest `levels` eigenvalues of a band operator, by bisection."""
    return eig_banded(
        op.bands, lower=True, eigvals_only=True, select="i", select_range=(0, levels - 1)
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-level frequency drift across a ladder of Fock truncations."""

    fock_sizes: tuple[int, ...]
    drifts: np.ndarray  # shape (len(fock_sizes) - 1, n_levels)
    converged_levels: int


def drift_ladder(
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
    return drift_ladder(params, fock_sizes, n_levels, builder)[0]


def two_by_two_eigvals(a: float, b: float, c: float) -> tuple[float, float]:
    """Eigenvalues of [[a, c], [c, b]] straight from numpy, sorted ascending."""
    w = np.linalg.eigvalsh(np.array([[a, c], [c, b]], dtype=float))
    return float(w[0]), float(w[1])


def printed_dressed_table(
    params: ModelParams, n: int
) -> tuple[dict[str, float], dict[str, float]]:
    """The printed dressed-state transition table (quad, dipole), written out by hand.

    quad is <to|(a - a^dag)|from>, dipole <to|s_x|from>, keyed as
    grwa.DressedElements.  Each block's half-angle sine carries the sign of
    its coupling C_n, so (c, s) is the block eigenvector the library's
    dressed ladder holds.  The elements are the twelve printed expressions
    in the half angles and sqrt(n), with no matrix product.
    """

    def half_angles(m: int) -> tuple[float, float]:
        block = grwa.symmetric_block(params, m)
        pair = grwa.dressed_pair(block)
        return pair.cos_half, math.copysign(pair.sin_half, block.c)

    cn, sn = half_angles(n)
    if n == 1:
        quad = {"plus_ground": cn, "minus_ground": -sn}
        dipole = {"plus_ground": 0.5 * sn, "minus_ground": 0.5 * cn}
        return quad, dipole
    cm, sm = half_angles(n - 1)
    rn, rm = math.sqrt(n), math.sqrt(n - 1)
    quad = {
        "plus_minus": rm * cm * sn - rn * cn * sm,
        "minus_plus": rm * sm * cn - rn * sn * cm,
        "plus_plus": rm * sm * sn + rn * cn * cm,
        "minus_minus": rm * cm * cn + rn * sn * sm,
    }
    dipole = {
        "plus_minus": -0.5 * sm * sn,
        "minus_plus": 0.5 * cm * cn,
        "plus_plus": 0.5 * cm * sn,
        "minus_minus": -0.5 * sm * cn,
    }
    return quad, dipole


def build_edm(params: ModelParams) -> OperatorMatrix:
    """Extended Dicke model with the quadratic S_x^2 term.

    H = omega_c a^dag a + omega_d S_z + g (a + a^dag) S_x
        + (g^2/omega_c) S_x^2 + epsilon S_x
    on the spin-N/2 (x) Fock product space.  At spin_n = 1 this is the Rabi
    Hamiltonian plus the constant g^2/(4 omega_c).
    """
    a, ad = fock_ladder(params.n_fock)
    sx, _, sz = spin_operators(params.spin_n)
    eye_s = np.eye(params.spin_n + 1)
    eye_f = np.eye(params.n_fock)
    h = (
        params.omega_c * np.kron(eye_s, ad.entries @ a.entries)
        + params.omega_d * np.kron(sz.entries, eye_f)
        + params.epsilon * np.kron(sx.entries, eye_f)
        + params.g * np.kron(sx.entries, a.entries + ad.entries)
        + (params.g**2 / params.omega_c) * np.kron(sx.entries @ sx.entries, eye_f)
    )
    return OperatorMatrix(dim=h.shape[0], entries=h, label="H_edm")


def build_edm_hp(params: ModelParams, n_boson: int) -> OperatorMatrix:
    """Holstein-Primakoff form of the polaron extended Dicke model.

    H = omega_c a^dag a + epsilon b^dag b
        + (omega_d sqrt(N) / 2) [D(g/omega_c) b^dag + D^dag(g/omega_c) b]
    with b the dipole excitation mode truncated at n_boson states.  Valid in
    the lowest-wells regime <b^dag b> << N; also exercised at small g where
    the coupling reduces to a linear drive (two displaced oscillators).
    """
    a, ad = fock_ladder(params.n_fock)
    b, bd = fock_ladder(n_boson)
    dmat = displacement_matrix(params.n_fock, params.g / params.omega_c).entries
    coupling = 0.5 * params.omega_d * np.sqrt(params.spin_n)
    h = (
        params.omega_c * np.kron(np.eye(n_boson), ad.entries @ a.entries)
        + params.epsilon * np.kron(bd.entries @ b.entries, np.eye(params.n_fock))
        + coupling * (np.kron(bd.entries, dmat) + np.kron(b.entries, dmat.conj().T))
    )
    return OperatorMatrix(dim=h.shape[0], entries=h, label="H_edm_hp")
