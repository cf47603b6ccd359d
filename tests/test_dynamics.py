"""Multi-photon tunneling oscillation scenario end to end (fast regime).

The deep-USC acceptance regime (g = 3) lives in the acceptance suite; here a
cheaper g = 2 run exercises the full pipeline with measured envelopes.
"""

from __future__ import annotations

import numpy as np
import pytest

from usc_relax import grwa
from usc_relax.dynamics import TunnelingRun, right_vacuum_state, run_tunneling_oscillations
from usc_relax.eigen import certified_eigensystem
from usc_relax.operators import (
    ModelParams,
    build_polaron_rabi,
    fock_ladder,
    spin_operators,
)


@pytest.fixture(scope="module")
def quick_run() -> TunnelingRun:
    return run_tunneling_oscillations(
        k=1, g=2.0, gamma=0.002, m_levels=16, n_periods=6.5, points_per_period=40
    )


def test_right_vacuum_state_structure():
    params = ModelParams(g=2.0, n_fock=12)
    psi = right_vacuum_state(params)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
    sx = np.kron(spin_operators(1)[0].entries, np.eye(12))
    assert (psi.conj() @ sx @ psi).real == pytest.approx(0.5, abs=1e-14)
    a, ad = fock_ladder(12)
    num = np.kron(np.eye(2), ad.entries @ a.entries)
    assert abs(psi.conj() @ num @ psi) < 1e-14


def test_input_validation():
    with pytest.raises(ValueError, match="k must be >= 1"):
        run_tunneling_oscillations(k=0)
    with pytest.raises(ValueError, match="vanishes"):
        run_tunneling_oscillations(k=1, g=0.0)


def test_references_match_closed_forms(quick_run):
    params = quick_run.params
    assert quick_run.omega_ref == pytest.approx(abs(grwa.rabi_frequency(1, 1, params)))
    assert quick_run.decay_ref == pytest.approx(0.001)
    assert len(quick_run.times) == 260
    assert quick_run.times[-1] == pytest.approx(6.5 * 2.0 * np.pi / quick_run.omega_ref)


def test_initial_state_is_right_well_vacuum(quick_run):
    assert quick_run.trajectory.projection_deficit < 1e-3
    assert quick_run.sx[0] == pytest.approx(0.5, abs=1e-3)
    assert abs(quick_run.photons[0]) < 1e-2


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
    # pinning the reference frequency instead of the fitted one can only
    # have a larger or equal deviation
    assert quick_run.collapse_deviation(omega=quick_run.omega_ref) >= (
        quick_run.collapse_deviation() - 1e-12
    )


def test_trajectory_sanity(quick_run):
    assert quick_run.trajectory.trace_drift() < 1e-8
    assert quick_run.trajectory.min_eigenvalue() > -1e-7
    # dissipation never pushes |<s_x>| outside the physical band
    assert np.max(np.abs(quick_run.sx)) <= 0.5 + 1e-6


def test_eigensystem_injection_reproduces_run(quick_run):
    params = quick_run.params
    eig = certified_eigensystem(params, levels=16, builder=build_polaron_rabi)
    rerun = run_tunneling_oscillations(
        k=1,
        g=2.0,
        gamma=0.002,
        n_fock=params.n_fock,
        m_levels=16,
        n_periods=6.5,
        points_per_period=40,
        eigensystem=eig,
    )
    assert np.allclose(rerun.sx, quick_run.sx, atol=1e-10)


def test_photons_match_the_kron_number_operator(quick_run):
    params = quick_run.params
    v = certified_eigensystem(params, levels=16, builder=build_polaron_rabi).lowest(16)[1]
    a, ad = fock_ladder(params.n_fock)
    num = v.conj().T @ np.kron(np.eye(2), ad.entries @ a.entries) @ v
    ref = np.einsum("ij,tji->t", num, quick_run.trajectory.states).real
    assert np.max(np.abs(quick_run.photons - ref)) < 1e-12
