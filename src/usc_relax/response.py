"""Thermal linear-response spectra: structure factors, impedances, transmission.

Structure factors are thermally weighted sums of transition lines,
delta-broadened into Lorentzians of half-width eta.  All dimensional
prefactors (hbar, the LC and dipole impedance scales) are set to 1; only
ratios survive in the transmission function, so a single unit knob would
multiply through without changing any reported shape.

The lines are the master equation's own line list (lindblad.transition_lines)
over the m_levels retained eigenlevels, weighted by the same Boltzmann
populations as its Gibbs state; requests whose thermal tail weight beyond
the last level would exceed 1e-6 are rejected rather than silently truncated.
The Lorentzians are summed over blocks of lines broadcast on the frequency
grid, in line order, so each value equals the per-line sum bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .eigen import EigenSystem
from .lindblad import boltzmann_weights, coupling_matrix, transition_lines
from .operators import ModelParams

TAIL_TOL = 1e-6
LINE_BLOCK = 32   # lines broadcast over the frequency grid at once


@dataclass(frozen=True)
class SpectrumGrid:
    """One response spectrum on a frequency grid, with its line list."""

    omegas: np.ndarray
    values: np.ndarray
    broadening: float
    temperature: float
    kind: str
    peaks: tuple[tuple[float, float], ...] = ()   # (line frequency, weight)


def thermal_weights(freqs: np.ndarray, temperature: float) -> np.ndarray:
    """Normalized Boltzmann weights over the retained levels.

    Rejects the truncation when the last retained level still carries more
    than TAIL_TOL of the total weight, since then the levels beyond it
    cannot be negligible.
    """
    w = boltzmann_weights(freqs, temperature)
    if w[-1] > TAIL_TOL:
        raise ValueError(
            f"thermal tail weight {w[-1]:.2e} at the truncation edge exceeds {TAIL_TOL:.0e}; "
            "retain more levels or lower the temperature"
        )
    return w


def _lorentzian_sum(
    lines: np.ndarray, weights: np.ndarray, omegas: np.ndarray, eta: float
) -> np.ndarray:
    """Sum of weight * (eta/pi) / ((omega - line)^2 + eta^2) over the lines, in order.

    A block of LINE_BLOCK lines is broadcast over the grid; the running total
    joins the block's first row and the block is reduced along its leading
    axis, which numpy adds row by row, so every grid value is accumulated in
    the same order, and to the same bits, as a loop over single lines.
    """
    values = np.zeros_like(omegas)
    scaled = weights * (eta / math.pi)
    for start in range(0, len(lines), LINE_BLOCK):
        block = omegas - lines[start:start + LINE_BLOCK, None]
        np.square(block, out=block)
        block += eta**2
        np.divide(scaled[start:start + LINE_BLOCK, None], block, out=block)
        block[0] += values
        values = block.sum(axis=0)
    return values


def _structure_factor(
    eig: EigenSystem,
    params: ModelParams,
    channel: str,
    temperature: float,
    omegas: np.ndarray,
    eta: float,
    m_levels: int,
    kind: str,
) -> SpectrumGrid:
    if eta <= 0.0:
        raise ValueError(f"broadening eta must be positive, got {eta}")
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1 or np.any(np.diff(omegas) <= 0.0):
        raise ValueError("frequency grid must be strictly ascending")
    omega, elem2 = transition_lines(eig, coupling_matrix(params, channel), m_levels)
    # omega[0] holds the level energies above the ground level
    strength = thermal_weights(omega[0], temperature)[:, None] * elem2
    keep = strength > 0.0   # row-major: by initial level n, then final level m
    lines, weights = omega[keep], strength[keep]
    return SpectrumGrid(
        omegas=omegas,
        values=_lorentzian_sum(lines, weights, omegas, eta),
        broadening=eta,
        temperature=temperature,
        kind=kind,
        peaks=tuple(zip(lines, weights)),
    )


def cavity_structure_factor(
    eig: EigenSystem,
    params: ModelParams,
    temperature: float,
    omegas: np.ndarray,
    eta: float,
    m_levels: int = 24,
) -> SpectrumGrid:
    """S_c(w): thermally weighted quadrature lines |<n|a - a^dag|m>|^2."""
    return _structure_factor(
        eig, params, "cavity", temperature, omegas, eta, m_levels, "cavity_structure"
    )


def dipole_structure_factor(
    eig: EigenSystem,
    params: ModelParams,
    temperature: float,
    omegas: np.ndarray,
    eta: float,
    m_levels: int = 24,
) -> SpectrumGrid:
    """S_dip(w): thermally weighted dipole lines |<n|s_x|m>|^2."""
    return _structure_factor(
        eig, params, "dipole", temperature, omegas, eta, m_levels, "dipole_structure"
    )


def system_impedance(s_c: SpectrumGrid) -> SpectrumGrid:
    """Z_sys(w) = -i w S_c(w) in natural units (pointwise map)."""
    return replace(s_c, values=-1j * s_c.omegas * s_c.values, kind="impedance")


def transmission(z_sys: SpectrumGrid, q_factor: float) -> SpectrumGrid:
    """Current transmission T(w) = Q^{-1} / (Q^{-1} + Z_LC / Z_sys), Z_LC = 1.

    Algebraically identical to the current-divider form
    Z_sys / (Z_sys + Q Z_LC); points with Z_sys = 0 take the limiting T = 0.
    """
    if q_factor <= 0.0:
        raise ValueError(f"quality factor must be positive, got {q_factor}")
    z = z_sys.values
    t = np.zeros_like(z, dtype=complex)
    nz = z != 0.0
    t[nz] = (1.0 / q_factor) / (1.0 / q_factor + 1.0 / z[nz])
    return replace(z_sys, values=t, kind="transmission")
