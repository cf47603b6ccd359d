"""Scenario runner for resonant multi-photon tunneling oscillations.

Prepares the dipole in its upper well with the cavity in its displaced
vacuum (the polaron |right, 0> state), evolves under the thermal master
equation at a k-photon resonance epsilon = k omega_c, and fits the damped
tunneling oscillation.  The run happens in the lab frame on the band
solver; the jump operators commute with the polaron map, so only the
initial state carries the frame.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .eigen import certified_eigensystem
from .grwa import rabi_frequency
from .lindblad import (
    RabiFit,
    Trajectory,
    build_liouvillian,
    cavity_bath,
    coupling_elements,
    dipole_bath,
    evolve,
    fit_rabi_decay,
    project_pure_state,
)
from .operators import ModelParams, displacement_element


def right_vacuum_state(params: ModelParams) -> np.ndarray:
    """The polaron |right, 0> in the lab frame: |s_x = +1/2> (x) a coherent state.

    The cavity amplitudes are <n| exp[x (a - a^dag)] |0> with x = g / (2 omega_c),
    so a + (g/omega_c) S_x annihilates the state.  The Fock truncation drops the
    coherent-state tail and the state is not renormalized.  That tail,
    1 - ||psi||^2, is not part of the projection deficit (which counts only
    the weight outside the retained levels); at default_n_fock it evaluates
    to 0 for g = 1, 2 and 3.
    """
    if params.spin_n != 1:
        raise ValueError("tunneling scenario is defined for the two-level model")
    x = params.g / (2.0 * params.omega_c)
    cavity = np.array([displacement_element(n, 0, x) for n in range(params.n_fock)])
    return np.kron(np.ones(2) / np.sqrt(2.0), cavity).astype(complex)   # |up> + |down>


@dataclass(frozen=True)
class TunnelingRun:
    """Damped k-photon Rabi oscillation with its analytic references."""

    params: ModelParams
    k: int
    gamma: float
    times: np.ndarray
    sx: np.ndarray
    trajectory: Trajectory
    projection_deficit: float   # initial-state weight outside the retained levels
    omega_ref: float        # closed-form |Omega_(k,k)|
    decay_ref: float        # k gamma / 2
    fit: RabiFit

    def rescaled(self) -> np.ndarray:
        """Envelope-compensated curve e^{k gamma t/2)(<s_x> + 1/2) - 1/2."""
        return np.exp(self.k * self.gamma * self.times / 2.0) * (self.sx + 0.5) - 0.5

    def collapse_deviation(self) -> float:
        """Max deviation of the rescaled curve from cos(omega t)/2 over three periods.

        omega is the fitted oscillation frequency.
        """
        w = self.fit.omega
        mask = self.times <= 6.0 * np.pi / w   # three periods
        return float(np.max(np.abs(self.rescaled()[mask] - np.cos(w * self.times[mask]) / 2.0)))


def run_tunneling_oscillations(
    k: int,
    params: ModelParams = ModelParams.auto(g=3.0),
    gamma: float = 0.002,
    temperature: float = 0.0,
    m_levels: int = 20,
    n_periods: float = 6.5,
    points_per_period: int = 60,
) -> TunnelingRun:
    """Simulate <s_x>(t) from |right, 0> at the k-photon resonance.

    params sets the model; its epsilon is replaced by the resonance
    k omega_c.  The dipole bath strength is kappa = 4 gamma (the regime
    where cavity losses set the slow scale).  The time grid covers n_periods
    of the closed-form Omega_(k,k).
    """
    if k < 1:
        raise ValueError(f"resonance order k must be >= 1, got {k}")
    params = replace(params, epsilon=k * params.omega_c)
    baths = [cavity_bath(gamma, params.omega_c), dipole_bath(4.0 * gamma, params.omega_d)]
    eig = certified_eigensystem(params, levels=m_levels)
    lv = build_liouvillian(eig, params, baths, temperature=temperature)
    rho0, deficit = project_pure_state(eig, right_vacuum_state(params))

    omega_ref = abs(rabi_frequency(k, k, params))
    if omega_ref < 1e-12:
        raise ValueError(
            f"tunneling frequency Omega_({k},{k}) vanishes at g={params.g}; "
            "there is no oscillation to time"
        )
    t_final = n_periods * 2.0 * np.pi / omega_ref
    times = np.linspace(0.0, t_final, max(2, int(round(n_periods * points_per_period))))

    # S_x (x) 1 is the dipole bath's coupling
    observables = {"sx": coupling_elements(eig, params, "dipole")}
    traj = evolve(lv, rho0, times, observables=observables)
    fit = fit_rabi_decay(times, traj.observables["sx"])
    return TunnelingRun(
        params=params,
        k=k,
        gamma=gamma,
        times=times,
        sx=traj.observables["sx"],
        trajectory=traj,
        projection_deficit=deficit,
        omega_ref=omega_ref,
        decay_ref=k * gamma / 2.0,
        fit=fit,
    )
