"""Scenario runner for resonant multi-photon tunneling oscillations.

Prepares the dipole in its upper well with an empty cavity (the polaron
|right, 0> state), evolves under the thermal master equation at a k-photon
resonance epsilon = k omega_c, and fits the damped tunneling oscillation.
The run happens in the polaron frame, where the initial state is simple and
the jump operators are the same as in the lab frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import EigenSystem, certified_eigensystem
from .grwa import rabi_frequency
from .lindblad import (
    BathSpec,
    RabiFit,
    Trajectory,
    build_liouvillian,
    cavity_bath,
    coupling_matrix,
    dipole_bath,
    evolve,
    fit_rabi_decay,
    project_pure_state,
)
from .operators import ModelParams, build_polaron_rabi, default_n_fock


def right_vacuum_state(params: ModelParams) -> np.ndarray:
    """|right, 0>: the s_x = +1/2 dipole state with the cavity in vacuum."""
    if params.spin_n != 1:
        raise ValueError("tunneling scenario is defined for the two-level model")
    psi = np.zeros(params.dim, dtype=complex)
    psi[0] = 1.0 / np.sqrt(2.0)                # |up, 0>
    psi[params.n_fock] = 1.0 / np.sqrt(2.0)    # |down, 0>
    return psi


@dataclass(frozen=True)
class TunnelingRun:
    """Damped k-photon Rabi oscillation with its analytic references."""

    params: ModelParams
    k: int
    gamma: float
    times: np.ndarray
    sx: np.ndarray
    photons: np.ndarray
    trajectory: Trajectory
    omega_ref: float        # closed-form |Omega_(k,k)|
    decay_ref: float        # k gamma / 2
    fit: RabiFit

    def rescaled(self) -> np.ndarray:
        """Envelope-compensated curve e^{k gamma t/2)(<s_x> + 1/2) - 1/2."""
        return np.exp(self.k * self.gamma * self.times / 2.0) * (self.sx + 0.5) - 0.5

    def collapse_deviation(self, n_periods: float = 3.0, omega: float | None = None) -> float:
        """Max deviation of the rescaled curve from cos(omega t)/2.

        omega defaults to the fitted oscillation frequency; passing
        omega_ref instead also penalizes the closed-form frequency offset.
        """
        w = self.fit.omega if omega is None else omega
        mask = self.times <= n_periods * 2.0 * np.pi / w
        return float(np.max(np.abs(self.rescaled()[mask] - np.cos(w * self.times[mask]) / 2.0)))


def run_tunneling_oscillations(
    k: int,
    g: float = 3.0,
    gamma: float = 0.002,
    temperature: float = 0.0,
    n_fock: int | None = None,
    m_levels: int = 20,
    n_periods: float = 6.5,
    points_per_period: int = 60,
    eigensystem: EigenSystem | None = None,
) -> TunnelingRun:
    """Simulate <s_x>(t) from |right, 0> at the k-photon resonance.

    The dipole bath strength is kappa = 4 gamma (the regime where cavity
    losses set the slow scale).  The time grid covers n_periods of the
    closed-form Omega_(k,k).
    """
    if k < 1:
        raise ValueError(f"resonance order k must be >= 1, got {k}")
    nf = default_n_fock(g) if n_fock is None else n_fock
    params = ModelParams(g=g, epsilon=float(k), n_fock=nf)
    baths = [cavity_bath(gamma, params.omega_c), dipole_bath(4.0 * gamma, params.omega_d)]
    if eigensystem is None:
        eig = certified_eigensystem(params, levels=m_levels, builder=build_polaron_rabi)
    else:
        eig = eigensystem
    lv = build_liouvillian(eig, params, baths, temperature=temperature, m_levels=m_levels)
    rho0, deficit = project_pure_state(eig, right_vacuum_state(params), m_levels)

    omega_ref = abs(rabi_frequency(k, k, params))
    if omega_ref < 1e-12:
        raise ValueError(
            f"tunneling frequency Omega_({k},{k}) vanishes at g={g}; "
            "there is no oscillation to time"
        )
    t_final = n_periods * 2.0 * np.pi / omega_ref
    times = np.linspace(0.0, t_final, max(2, int(round(n_periods * points_per_period))))

    # S_x (x) 1 is the dipole bath's cached coupling; 1 (x) a^dag a is diagonal
    v = eig.lowest(m_levels)[1]
    photons = np.tile(np.arange(nf, dtype=float), 2)
    observables = {
        "sx": v.conj().T @ coupling_matrix(params, "dipole").entries @ v,
        "photons": (v.conj().T * photons) @ v,
    }
    traj = evolve(lv, rho0, times, observables=observables, projection_deficit=deficit)
    fit = fit_rabi_decay(times, traj.observables["sx"])
    return TunnelingRun(
        params=params,
        k=k,
        gamma=gamma,
        times=times,
        sx=traj.observables["sx"],
        photons=traj.observables["photons"],
        trajectory=traj,
        omega_ref=omega_ref,
        decay_ref=k * gamma / 2.0,
        fit=fit,
    )
