"""Independent reference implementations used to freeze expected values.

Everything here deliberately avoids the code paths under test: displacement
matrices come from `scipy.linalg.expm`, double-well levels from a Numerov
shooting integration, dipole emission rates from direct quadrature of the
displacement autocorrelation function, and Lindblad generators from a dense
Kronecker construction, and band eigenvalues from scipy's `eig_banded`
(LAPACK dsbevx).  Slow and simple beats fast and shared.

The Fock-truncation drift ladder re-solves at larger cutoffs: it is the
independent cross-check of the library's one-solve residual certificate.

The dense extended Dicke builders live here too: the library has no
spin-N Hamiltonian yet, and these serve as references for the one it gets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eig_banded, expm
from scipy.optimize import brentq

from usc_relax.eigen import EigenSystem, diagonalize
from usc_relax.operators import (
    BandOperator,
    ModelParams,
    OperatorMatrix,
    displacement_matrix,
    fock_ladder,
    rabi_bands,
    spin_operators,
)

DRIFT_TOL = 1e-6   # absolute level drift that still counts as converged


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
