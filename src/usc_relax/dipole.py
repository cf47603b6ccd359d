"""Tilted double-well dipole: 1D eigenproblem and two-level reduction.

The dipole is a particle of mass m in

    V(x) = -(mu2^2 / 2) x^2 + (mu4^4 / 4) x^4 + tilt * x,

solved on a uniform grid with hard walls by second-order central finite
differences (hbar = 1).  The exponents on mu2 and mu4 are part of the shape
convention: both coefficients carry frequency-like units and are treated as
literal shape parameters.

The matrix is T = kin L + diag(V), kin = 1 / (2 m dx^2) and L the hard-wall
second difference tridiag(-1, 2, -1).  Its lowest levels are found by
shifted inverse iteration, one level at a time (Parlett, The Symmetric
Eigenvalue Problem, ch. 3-4):

* Start.  Each level starts from the same operator's eigenvector on a
  coarse grid of the same box (grid_points // COARSE_RATIO points, at
  least 200), interpolated onto the fine grid.
* Iteration.  Each step is one tridiagonal solve (T - E) y = psi (LAPACK
  dgtsv), with the levels already found projected out of y, and E the
  Rayleigh quotient in cancellation-free form,
  kin (sum (psi_{i+1} - psi_i)^2 + psi_0^2 + psi_{N-1}^2) + sum V psi^2.
  A level is accepted once ||T psi - E psi|| <= 16 eps ||T||; from the
  coarse start that takes one or two steps.
* Certificate.  One count-only Sturm sequence (dstebz by value, its
  tolerance the whole interval, so it does not bisect) must find exactly
  n_levels eigenvalues at or below E_{n-1} + 16 eps ||T||, or the solve
  raises RuntimeError.  With orthonormal vectors and small residuals,
  that proves the levels are the lowest n_levels (no level skipped, none
  reached twice).  A pair split by less than that tolerance across the
  last level requested is refused for the same reason.
* Accuracy.  The Rayleigh quotient never forms the diagonal 2 kin + V,
  whose float64 rounding alone moves levels by up to about 1e-11 at
  kin = 5e6, nor cancels terms of size kin.  Against an 80-bit Sturm
  bisection of T, levels 0 to 2 agree within 6e-13 on the default well
  and the mu2 = 2, 3, 4 deep wells (mass 0.1, x_max 8); full-grid float64
  bisection of the same matrix is 1e-10 to 1.6e-9 off there.

The two-level reduction keeps the untilted doublet {ground, first excited}:
tunneling splitting omega_d = E_1 - E_0, dipole element x_10 = <1|x|0>, and
well asymmetry epsilon = 2 * tilt * x_10.  It is trustworthy only when the
doublet sits well below the barrier and far from the next level.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dstebz

BOUNDARY_TOL = 1e-6
GAP_RATIO_MIN = 10.0
GRID_FLOOR = 200           # fewest grid points WellParams accepts
COARSE_RATIO = 16          # fine grid points per point of the coarse start grid
RESIDUAL_TOL = 16.0        # eigenpair residual bound, in units of eps * ||T||
MAX_STEPS = 8              # inverse-iteration steps before a level gives up


class BoundaryLeakWarning(UserWarning):
    """Eigenfunction amplitude at the hard wall is not negligible."""


@dataclass(frozen=True)
class WellParams:
    """Shape of the tilted double well and the discretization grid."""

    mu2: float = 1.8
    mu4: float = 1.0
    tilt: float = 0.0
    mass: float = 1.0
    grid_points: int = 16001
    x_max: float = 6.0

    def __post_init__(self) -> None:
        for name in ("mu2", "mu4", "mass", "x_max"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.grid_points < GRID_FLOOR:
            raise ValueError(f"grid_points must be >= {GRID_FLOOR}, got {self.grid_points}")

    def grid(self) -> np.ndarray:
        """Interior points of the hard-wall box [-x_max, x_max]."""
        full = np.linspace(-self.x_max, self.x_max, self.grid_points + 2)
        return full[1:-1]


def potential(x: np.ndarray, p: WellParams) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    x2 = x * x
    return -(p.mu2**2 / 2.0) * x2 + (p.mu4**4 / 4.0) * (x2 * x2) + p.tilt * x


def barrier_height(p: WellParams) -> float:
    """Potential at the local maximum between the wells (x = 0 when untilted)."""
    # With tilt, the barrier top shifts to the middle root of V'(x) = 0.
    roots = np.roots([p.mu4**4, 0.0, -(p.mu2**2), p.tilt])
    real = np.sort(roots[np.abs(roots.imag) < 1e-9].real)
    if len(real) < 3:
        raise ValueError("potential has no interior barrier for these parameters")
    return float(potential(real[1], p))


def _coarse_starts(p: WellParams, x: np.ndarray, n_levels: int) -> np.ndarray:
    """Start vectors: the same operator's eigenvectors on a coarse grid of the box.

    The coarse grid has grid_points // COARSE_RATIO points, never fewer than
    WellParams' floor; its vectors, zero at the walls, are interpolated
    linearly onto x.  Returns an (n_levels, len(x)) array.
    """
    coarse = replace(p, grid_points=max(GRID_FLOOR, p.grid_points // COARSE_RATIO))
    xc = coarse.grid()
    kin = 1.0 / (2.0 * p.mass * (xc[1] - xc[0]) ** 2)
    _, vecs = eigh_tridiagonal(
        2.0 * kin + potential(xc, coarse), np.full(len(xc) - 1, -kin),
        select="i", select_range=(0, n_levels - 1),
    )
    walls = np.concatenate(([-p.x_max], xc, [p.x_max]))
    return np.array([np.interp(x, walls, np.pad(v, 1)) for v in vecs.T])


def _rayleigh_quotient(psi: np.ndarray, v: np.ndarray, kin: float) -> float:
    """psi^T T psi for unit psi, with the kinetic part as a sum of squares.

    T = kin L + diag(v), L the hard-wall second difference, and
    psi^T L psi = sum (psi_{i+1} - psi_i)^2 + psi_0^2 + psi_{N-1}^2: every
    term is small and non-negative, so nothing of size kin cancels.
    """
    step = np.diff(psi)
    return float(kin * (step @ step + psi[0] ** 2 + psi[-1] ** 2) + (v * psi) @ psi)


def _residual_norm(psi: np.ndarray, v: np.ndarray, kin: float, energy: float) -> float:
    """||T psi - energy psi||, the kinetic part from differences of psi."""
    step = np.diff(psi, prepend=0.0, append=0.0)
    residual = kin * (step[:-1] - step[1:]) + (v - energy) * psi
    return float(np.sqrt(residual @ residual))


def _inverse_iteration(
    v: np.ndarray, kin: float, starts: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of T = kin L + diag(v) by shifted inverse iteration, one level at a time.

    Each step solves (T - E) y = psi with dgtsv, E the current Rayleigh
    quotient, and removes from y the levels already found (two classical
    Gram-Schmidt passes), so no two starts can reach one level.  A level is
    accepted once ||T psi - E psi|| <= tol; one that does not get there in
    MAX_STEPS raises.  Returns the energies and the unit vectors as rows.
    """
    diag = 2.0 * kin + v
    off = np.full(len(v) - 1, -kin)
    found = np.empty_like(starts)
    energies = np.empty(len(starts))
    for k, psi in enumerate(starts):
        basis = found[:k]
        for _ in range(MAX_STEPS):
            for _ in range(2):
                psi = psi - (basis @ psi) @ basis
            psi = psi / np.sqrt(psi @ psi)
            energy = _rayleigh_quotient(psi, v, kin)
            if _residual_norm(psi, v, kin, energy) <= tol:
                break
            _, _, _, solved, info = dgtsv(off, diag - energy, off, psi[:, None])
            if info != 0:
                raise RuntimeError(f"tridiagonal solve failed at level {k} (info={info})")
            psi = solved[:, 0]
        else:
            raise RuntimeError(
                f"inverse iteration left level {k} above residual {tol:.3e} "
                f"after {MAX_STEPS} steps"
            )
        found[k], energies[k] = psi, energy
    order = np.argsort(energies, kind="stable")
    return energies[order], found[order]


def _sturm_count(v: np.ndarray, kin: float, upper: float) -> int:
    """Number of eigenvalues of T = kin L + diag(v) at or below `upper`.

    One count-only dstebz call over (min v, upper]: every eigenvalue of T
    exceeds min v, because kin L is positive definite.  Its tolerance is the
    whole interval, so it stops at the two Sturm counts without bisecting.
    """
    lower = float(np.min(v))
    m, _, _, _, info = dstebz(
        2.0 * kin + v, np.full(len(v) - 1, -kin), 1, lower, upper, 0, 0, upper - lower, "E"
    )
    if info != 0:
        raise RuntimeError(f"Sturm count failed (dstebz info={info})")
    return int(m)


def solve_double_well(
    p: WellParams, n_levels: int = 4
) -> list[tuple[float, np.ndarray]]:
    """Lowest eigenpairs of -(1/2m) d^2/dx^2 + V(x) with hard walls.

    Wavefunctions live on p.grid() and are L2-normalized with the grid
    weight dx; each carries the sign its inverse iteration ends with, which
    nothing read from them depends on.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    x = p.grid()
    dx = x[1] - x[0]
    kin = 1.0 / (2.0 * p.mass * dx**2)
    v = potential(x, p)
    # the row-sum bound max |T_ii| + 2 kin >= ||T||_2
    tol = RESIDUAL_TOL * np.finfo(float).eps * (float(np.max(np.abs(2.0 * kin + v))) + 2.0 * kin)
    energies, vecs = _inverse_iteration(v, kin, _coarse_starts(p, x, n_levels), tol)
    count = _sturm_count(v, kin, energies[-1] + tol)
    if count != n_levels:
        raise RuntimeError(
            f"Sturm count finds {count} levels at or below {float(energies[-1] + tol)!r}, "
            f"where {n_levels} were solved for"
        )
    out = []
    for i, psi in enumerate(vecs):
        edge = max(abs(psi[0]), abs(psi[-1])) / np.max(np.abs(psi))
        if edge > BOUNDARY_TOL:
            warnings.warn(
                f"level {i} has relative boundary amplitude {edge:.2e}; increase x_max",
                BoundaryLeakWarning,
                stacklevel=2,
            )
        out.append((float(energies[i]), psi / np.sqrt(dx)))
    return out


@dataclass(frozen=True)
class TlaReport:
    """Two-level parameters extracted from the untilted double well."""

    omega_d: float      # tunneling splitting E_1 - E_0
    x_10: float         # dipole element |<1|x|0>|, free of the vectors' signs
    epsilon: float      # well asymmetry 2 * tilt * x_10
    gap_ratio: float    # (E_2 - E_1) / (E_1 - E_0)
    valid: bool


def tla_parameters(p: WellParams) -> TlaReport:
    """Reduce the double well to tunneling + asymmetry two-level parameters.

    The doublet basis is always taken from the untilted potential; the tilt
    enters only through epsilon.  valid requires the doublet to be isolated
    (gap_ratio above 10) and to lie below the central barrier.
    """
    untilted = replace(p, tilt=0.0)
    (e0, psi0), (e1, psi1), (e2, _) = solve_double_well(untilted, 3)
    x = untilted.grid()
    dx = x[1] - x[0]
    omega_d = e1 - e0
    if omega_d <= 0.0:
        raise RuntimeError("degenerate doublet: tunneling splitting is not resolvable")
    x10 = abs(float(psi1 @ (x * psi0) * dx))
    gap_ratio = (e2 - e1) / omega_d
    barrier = barrier_height(untilted)
    valid = gap_ratio > GAP_RATIO_MIN and e0 < barrier and e1 < barrier
    return TlaReport(
        omega_d=float(omega_d),
        x_10=x10,
        epsilon=2.0 * p.tilt * x10,
        gap_ratio=float(gap_ratio),
        valid=bool(valid),
    )
