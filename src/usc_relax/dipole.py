"""Tilted double-well dipole: 1D eigenproblem and two-level reduction.

The dipole is a particle of mass m in

    V(x) = -(mu2^2 / 2) x^2 + (mu4^4 / 4) x^4 + tilt * x,

solved on a uniform grid with hard walls by second-order central finite
differences (hbar = 1).  The exponents on mu2 and mu4 are part of the shape
convention: both coefficients carry frequency-like units and are treated as
literal shape parameters.

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

BOUNDARY_TOL = 1e-6
GAP_RATIO_MIN = 10.0


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
        if self.grid_points < 200:
            raise ValueError(f"grid_points must be >= 200, got {self.grid_points}")

    def grid(self) -> np.ndarray:
        """Interior points of the hard-wall box [-x_max, x_max]."""
        full = np.linspace(-self.x_max, self.x_max, self.grid_points + 2)
        return full[1:-1]


def potential(x: np.ndarray, p: WellParams) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return -(p.mu2**2 / 2.0) * x**2 + (p.mu4**4 / 4.0) * x**4 + p.tilt * x


def barrier_height(p: WellParams) -> float:
    """Potential at the local maximum between the wells (x = 0 when untilted)."""
    # With tilt, the barrier top shifts to the middle root of V'(x) = 0.
    roots = np.roots([p.mu4**4, 0.0, -(p.mu2**2), p.tilt])
    real = np.sort(roots[np.abs(roots.imag) < 1e-9].real)
    if len(real) < 3:
        raise ValueError("potential has no interior barrier for these parameters")
    return float(potential(real[1], p))


def solve_double_well(
    p: WellParams, n_levels: int = 4
) -> list[tuple[float, np.ndarray]]:
    """Lowest eigenpairs of -(1/2m) d^2/dx^2 + V(x) with hard walls.

    Wavefunctions are L2-normalized with the grid weight dx and signed so
    that the total lobe integral is non-negative.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    x = p.grid()
    dx = x[1] - x[0]
    kin = 1.0 / (2.0 * p.mass * dx**2)
    diag = 2.0 * kin + potential(x, p)
    off = np.full(len(x) - 1, -kin)
    try:
        energies, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_levels - 1))
    except np.linalg.LinAlgError as exc:   # pragma: no cover - scipy rarely fails here
        raise RuntimeError(f"tridiagonal eigensolver failed: {exc}") from exc
    out = []
    for i in range(n_levels):
        psi = vecs[:, i] / np.sqrt(dx)
        if psi.sum() < 0.0:
            psi = -psi
        edge = max(abs(psi[0]), abs(psi[-1])) / np.max(np.abs(psi))
        if edge > BOUNDARY_TOL:
            warnings.warn(
                f"level {i} has relative boundary amplitude {edge:.2e}; increase x_max",
                BoundaryLeakWarning,
                stacklevel=2,
            )
        out.append((float(energies[i]), psi))
    return out


@dataclass(frozen=True)
class TlaReport:
    """Two-level parameters extracted from the untilted double well."""

    omega_d: float      # tunneling splitting E_1 - E_0
    x_10: float         # dipole element <1|x|0>, sign-fixed non-negative
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
    levels = solve_double_well(untilted, n_levels=3)
    (e0, psi0), (e1, psi1), (e2, _) = levels
    x = untilted.grid()
    dx = x[1] - x[0]
    omega_d = e1 - e0
    if omega_d <= 0.0:
        raise RuntimeError("degenerate doublet: tunneling splitting is not resolvable")
    x10 = float(psi1 @ (x * psi0) * dx)
    if x10 < 0.0:
        x10 = -x10
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
