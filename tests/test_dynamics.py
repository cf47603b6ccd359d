"""Multi-photon tunneling oscillation scenario end to end (fast regime).

The deep-USC acceptance regime (g = 3) lives in the acceptance suite; here a
cheaper g = 2 run exercises the full pipeline with measured envelopes.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import poisson

import oracles
from usc_relax import grwa
from usc_relax.dynamics import TunnelingRun, right_vacuum_state, run_tunneling_oscillations
from usc_relax.eigen import certified_eigensystem
from usc_relax.lindblad import (
    build_liouvillian,
    cavity_bath,
    dipole_bath,
    evolve,
    project_pure_state,
)
from oracles import fock_ladder, spin_operators
from usc_relax.operators import ModelParams, build_polaron_rabi


@pytest.fixture(scope="module")
def quick_run() -> TunnelingRun:
    return run_tunneling_oscillations(
        k=1, params=ModelParams.auto(g=2.0), gamma=0.002, m_levels=16, n_periods=6.5, points_per_period=40
    )


def test_right_vacuum_state_structure():
    # the lab-frame image of the polaron |right, 0> is |s_x = +1/2> times a
    # coherent state of amplitude -g/(2 omega_c), cut at n_fock photons
    for g, n_fock in ((2.0, 12), (3.0, 12), (3.0, 40)):
        params = ModelParams(g=g, n_fock=n_fock)
        psi = right_vacuum_state(params)
        x = g / (2.0 * params.omega_c)
        tail = poisson.sf(n_fock - 2, x * x)   # coherent weight from the last kept state on
        norm2 = np.vdot(psi, psi).real
        assert 1.0 - tail - 1e-14 <= norm2 <= 1.0 + 1e-14
        sx = np.kron(spin_operators(1)[0].entries, np.eye(n_fock))
        assert (psi.conj() @ sx @ psi).real == pytest.approx(0.5, abs=tail + 1e-14)
        a = np.kron(np.eye(2), fock_ladder(n_fock)[0].entries)
        residual = np.linalg.norm((a + (g / params.omega_c) * sx) @ psi)
        assert residual <= x * np.sqrt(tail) + 1e-14


def test_input_validation():
    with pytest.raises(ValueError, match="k must be >= 1"):
        run_tunneling_oscillations(k=0)
    with pytest.raises(ValueError, match="vanishes"):
        run_tunneling_oscillations(k=1, params=ModelParams.auto(g=0.0))


def test_references_match_closed_forms(quick_run):
    params = quick_run.params
    assert quick_run.omega_ref == pytest.approx(abs(grwa.rabi_frequency(1, 1, params)))
    assert quick_run.decay_ref == pytest.approx(0.001)
    assert len(quick_run.times) == 260
    assert quick_run.times[-1] == pytest.approx(6.5 * 2.0 * np.pi / quick_run.omega_ref)


def test_initial_state_is_right_well_vacuum(quick_run):
    assert quick_run.projection_deficit < 1e-3
    assert quick_run.sx[0] == pytest.approx(0.5, abs=1e-3)


def test_fit_tracks_references(quick_run):
    # measured at g = 2: frequency 5.4% off, decay 12% off, both inside the
    # coarser envelopes appropriate to this moderate coupling
    assert abs(quick_run.fit.omega - quick_run.omega_ref) / quick_run.omega_ref < 0.07
    assert abs(quick_run.fit.decay - quick_run.decay_ref) / quick_run.decay_ref < 0.15
    assert quick_run.fit.n_periods > 6.0


def test_rescaled_curve_and_collapse(quick_run):
    expected = (
        np.exp(quick_run.k * quick_run.gamma * quick_run.times / 2.0)
        * (quick_run.sx + 0.5)
        - 0.5
    )
    assert np.array_equal(quick_run.rescaled(), expected)
    assert quick_run.collapse_deviation() < 0.15


def test_trajectory_sanity(quick_run):
    assert oracles.trace_drift(quick_run.trajectory.populations) < 1e-8
    # the run's own generator and initial state, rebuilt for the oracle's dense states
    params = quick_run.params
    eig = certified_eigensystem(params, levels=16)
    baths = [cavity_bath(quick_run.gamma), dipole_bath(4.0 * quick_run.gamma)]
    lv = build_liouvillian(eig, params, baths, temperature=0.0)
    rho0, _ = project_pure_state(eig, right_vacuum_state(params))
    assert oracles.min_eigenvalue(oracles.dense_states(lv, rho0, quick_run.times)) > -1e-7
    # dissipation never pushes |<s_x>| outside the physical band
    assert np.max(np.abs(quick_run.sx)) <= 0.5 + 1e-6


@pytest.mark.parametrize("g", [2.0, 3.0])
@pytest.mark.parametrize("k", [1, 2])
def test_lab_frame_run_matches_polaron_frame_reference(g, k):
    # the same scenario assembled in the polaron frame, where |right, 0> is
    # a product state; the couplings commute with the polaron map
    run = run_tunneling_oscillations(k=k, params=ModelParams.auto(g=g), gamma=0.002)
    params = run.params
    eig = certified_eigensystem(params, levels=20, builder=build_polaron_rabi)
    baths = [cavity_bath(0.002), dipole_bath(0.008)]
    lv = build_liouvillian(eig, params, baths, temperature=0.0)
    psi = np.zeros(params.dim, dtype=complex)
    psi[0] = psi[params.n_fock] = 1.0 / np.sqrt(2.0)
    rho0, deficit = project_pure_state(eig, psi)
    v = eig.vectors
    sx = v.conj().T @ oracles.coupling_operator(params, "dipole") @ v
    ref = evolve(lv, rho0, run.times, observables={"sx": sx}).observables["sx"]
    assert np.max(np.abs(run.sx - ref)) < 1e-10
    # the deficit is the norm of the remainder outside the retained levels;
    # the frames agree to about 4e-14 of it
    assert run.projection_deficit == pytest.approx(deficit, rel=0.0, abs=1e-14)
