"""Thermal Lindblad assembly in the dressed eigenbasis, evolution, and fits.

The rate-matrix generator, its spectrum and its exact propagation are
cross-checked against an independent dense Kronecker construction, and the
weak-coupling / two-level limits against closed forms.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import oracles
from usc_relax.eigen import certified_eigensystem, diagonalize
from usc_relax.lindblad import (
    DEGENERACY_TOL,
    BathSpec,
    DegenerateSteadyStateError,
    Liouvillian,
    OverdampedSeriesError,
    build_liouvillian,
    cavity_bath,
    coupling_matrix,
    dipole_bath,
    evolve,
    fit_rabi_decay,
    gibbs_state,
    liouvillian_eigenvalues,
    liouvillian_gap,
    project_pure_state,
    steady_state,
    thermal_occupation,
    transition_lines,
    transition_rates,
)
from usc_relax.operators import ModelParams, build_polaron_rabi, build_rabi, rabi_bands
from usc_relax.response import thermal_weights


def _qubit_system(omega_d=0.7, n_fock=8):
    params = ModelParams(g=0.0, omega_d=omega_d, epsilon=0.0, n_fock=n_fock)
    eig = diagonalize(build_rabi(params))
    return params, eig


def _oracle_generator(lv):
    """Dense Kronecker generator rebuilt from the jumps |to><from| in lv.rates.

    Per-bath jumps with the same operator |to><from| add their rates, and the
    dissipator is linear in the rate, so one jump per nonzero entry is exact.
    """
    m = lv.m_levels
    ham = np.diag(lv.level_freqs).astype(complex)
    jumps = []
    for to, frm in zip(*np.nonzero(lv.rates)):
        c = np.zeros((m, m), dtype=complex)
        c[to, frm] = 1.0
        jumps.append((c, lv.rates[to, frm]))
    return oracles.dense_lindblad_generator(ham, jumps)


# ---------------------------------------------------------------------------
# bath spectra and golden-rule rates
# ---------------------------------------------------------------------------

def test_thermal_occupation_values():
    assert thermal_occupation(1.0, 0.0) == 0.0
    assert thermal_occupation(1.0, 1.0) == pytest.approx(1.0 / (math.e - 1.0))
    with pytest.raises(ValueError):
        thermal_occupation(-1.0, 0.5)


@given(
    omega=st.floats(min_value=1e-3, max_value=50.0, allow_nan=False),
    temperature=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_thermal_occupation_detailed_balance(omega, temperature):
    n = thermal_occupation(omega, temperature)
    assert n >= 0.0
    if n > 0.0:
        assert (n + 1.0) / n == pytest.approx(math.exp(omega / temperature), rel=1e-9)


def test_bath_spectral_laws():
    ohmic = cavity_bath(0.05)
    assert ohmic.spectral_density(0.0) == 0.0
    assert ohmic.spectral_density(2.0) == pytest.approx(0.1)
    assert ohmic.spectral_density(-2.0) == pytest.approx(0.1)
    rad = dipole_bath(0.2)
    assert rad.spectral_density(0.5) == pytest.approx(0.2 * 0.125)
    assert dipole_bath(0.2, ohmic=True).law == "ohmic"
    with pytest.raises(ValueError, match="channel"):
        BathSpec(channel="flux", law="ohmic", strength=0.1, ref_freq=1.0)
    with pytest.raises(ValueError, match="law"):
        BathSpec(channel="cavity", law="lorentzian", strength=0.1, ref_freq=1.0)
    with pytest.raises(ValueError, match="strength"):
        BathSpec(channel="cavity", law="ohmic", strength=-0.1, ref_freq=1.0)


@pytest.mark.parametrize("channel", ["cavity", "dipole"])
def test_coupling_matrix_is_read_only(channel):
    op = coupling_matrix(ModelParams(n_fock=10), channel)
    with pytest.raises(ValueError, match="read-only"):
        op.entries[0, 1] = 1.0


def test_coupling_matrix_shapes_and_symmetry():
    params = ModelParams(g=1.0, n_fock=10)
    cav = coupling_matrix(params, "cavity")
    dip = coupling_matrix(params, "dipole")
    assert cav.entries.shape == (20, 20)
    # quadrature is anti-Hermitian, dipole Hermitian
    assert np.allclose(cav.entries, -cav.entries.conj().T)
    assert np.allclose(dip.entries, dip.entries.conj().T)
    with pytest.raises(ValueError, match="channel"):
        coupling_matrix(params, "flux")


def test_transition_rates_structure():
    params, eig = _qubit_system()
    rates = transition_rates(eig, coupling_matrix(params, "dipole"), dipole_bath(0.1), 6)
    assert rates.shape == (6, 6)
    assert np.allclose(rates, rates.T)
    assert np.all(np.diag(rates) == 0.0)
    assert np.all(rates >= 0.0)
    with pytest.raises(ValueError, match="m_levels"):
        transition_rates(eig, coupling_matrix(params, "dipole"), dipole_bath(0.1), 100)


# ---------------------------------------------------------------------------
# Liouvillian assembly
# ---------------------------------------------------------------------------

def test_generator_preserves_trace_and_hermiticity():
    params = ModelParams.auto(g=1.0, epsilon=0.3)
    eig = certified_eigensystem(params, levels=10, builder=build_polaron_rabi)
    lv = build_liouvillian(
        eig, params, [cavity_bath(0.05), dipole_bath(0.2)], temperature=0.3, m_levels=10
    )
    rng = np.random.default_rng(11)
    for _ in range(20):
        probe = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        probe = probe + probe.conj().T
        out = lv.apply(probe)
        assert abs(np.trace(out)) < 1e-12 * np.linalg.norm(probe)
        assert np.linalg.norm(out - out.conj().T) < 1e-12 * np.linalg.norm(out)


def test_exactly_one_stationary_mode():
    params = ModelParams.auto(g=1.0, epsilon=0.3)
    eig = certified_eigensystem(params, levels=10, builder=build_polaron_rabi)
    lv = build_liouvillian(
        eig, params, [cavity_bath(0.05), dipole_bath(0.2)], temperature=0.2, m_levels=10
    )
    vals = liouvillian_eigenvalues(lv)
    assert np.count_nonzero(np.abs(vals) < 1e-9) == 1
    assert np.all(vals.real <= 1e-12)


def test_upward_downward_ratio_is_exact_boltzmann():
    params = ModelParams.auto(g=2.0, epsilon=0.4)
    eig = certified_eigensystem(params, levels=8, builder=build_polaron_rabi)
    temperature = 0.35
    lv = build_liouvillian(eig, params, [cavity_bath(0.05)], temperature, m_levels=8)
    up = list(zip(*np.nonzero(np.tril(lv.rates, -1))))   # rates[to, from], to > from
    assert up, "finite temperature must produce upward jumps"
    for to, frm in up:
        gap = lv.level_freqs[frm] - lv.level_freqs[to]
        partner = lv.rates[frm, to]
        assert partner > 0.0
        assert lv.rates[to, frm] / partner == pytest.approx(math.exp(gap / temperature), rel=1e-12)


def test_zero_temperature_has_no_upward_jumps():
    params = ModelParams.auto(g=2.0)
    eig = certified_eigensystem(params, levels=8, builder=build_polaron_rabi)
    lv = build_liouvillian(eig, params, [cavity_bath(0.05)], 0.0, m_levels=8)
    assert not np.any(np.tril(lv.rates))   # every jump rates[to, from] has from > to


def test_matches_dense_kron_generator():
    # reassemble from the jump rates with an independent construction
    params = ModelParams.auto(g=1.5, epsilon=0.3)
    eig = certified_eigensystem(params, levels=8, builder=build_polaron_rabi)
    lv = build_liouvillian(
        eig, params, [cavity_bath(0.04), dipole_bath(0.16)], temperature=0.25, m_levels=8
    )
    ref = _oracle_generator(lv)
    assert np.allclose(lv.matrix, ref, atol=1e-13)


def _per_bath_rates(eig, params, baths, temperature, m_levels):
    """The jump rates with the Boltzmann factors formed again for each bath."""
    rates = np.zeros((m_levels, m_levels))
    for bath in baths:
        gap, elem2 = transition_lines(eig, coupling_matrix(params, bath.channel), m_levels)
        downward = gap >= DEGENERACY_TOL * params.omega_c
        boltz = np.zeros_like(gap)
        if temperature > 0.0:
            x = np.where(downward, gap / temperature, np.inf)
            boltz = np.where(x > 700.0, 0.0, np.exp(-x))
        down = np.where(downward, bath.spectral_density(gap) * elem2, 0.0) / (1.0 - boltz)
        rates += down + (down * boltz).T
    return rates


@pytest.mark.parametrize("temperature", [0.0, 0.1])
def test_rates_match_per_bath_assembly(temperature):
    params = ModelParams(g=2.0, epsilon=0.4, n_fock=60)
    eig = diagonalize(rabi_bands(params), 24)
    baths = [cavity_bath(0.05), dipole_bath(0.2)]
    lv = build_liouvillian(eig, params, baths, temperature, m_levels=24)
    assert np.array_equal(lv.rates, _per_bath_rates(eig, params, baths, temperature, 24))
    assert not np.any(build_liouvillian(eig, params, [], temperature, m_levels=24).rates)


@pytest.mark.parametrize("temperature", [0.0, 0.3])
def test_gap_matches_dense_oracle_spectrum(temperature, eig_cache):
    # epsilon = 0 at g = 3: the gap is exponentially suppressed (~4e-7 at T = 0)
    params = ModelParams.auto(g=3.0, epsilon=0.0)
    eig = eig_cache(params, levels=20)
    lv = build_liouvillian(
        eig, params, [cavity_bath(0.05), dipole_bath(0.2)], temperature, m_levels=20
    )
    vals = np.linalg.eigvals(_oracle_generator(lv))
    vals = vals[np.lexsort((np.abs(vals.imag), -vals.real))]
    slowest = np.delete(vals, np.argmin(np.abs(vals)))[0].real
    assert liouvillian_gap(lv) == pytest.approx(slowest, rel=1e-10)


def test_evolve_with_coherences_matches_expm_of_dense_oracle():
    params = ModelParams.auto(g=1.5, epsilon=0.3)
    eig = certified_eigensystem(params, levels=8, builder=build_polaron_rabi)
    lv = build_liouvillian(
        eig, params, [cavity_bath(0.04), dipole_bath(0.16)], temperature=0.25, m_levels=8
    )
    rng = np.random.default_rng(3)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    times = np.linspace(0.0, 40.0, 21)
    traj = evolve(lv, rho0, times)
    gen = _oracle_generator(lv)
    for t, state in zip(times, traj.states):
        ref = (expm(gen * t) @ rho0.reshape(-1)).reshape(8, 8)
        assert np.max(np.abs(state - ref)) < 1e-12


def _six_level_liouvillian():
    params = ModelParams.auto(g=1.5, epsilon=0.3)
    eig = certified_eigensystem(params, levels=6, builder=build_polaron_rabi)
    return build_liouvillian(
        eig, params, [cavity_bath(0.04), dipole_bath(0.16)], temperature=0.25, m_levels=6
    )


def test_evolve_on_a_uniform_grid_matches_per_step_expm():
    lv = _six_level_liouvillian()
    rho0 = np.zeros((6, 6), dtype=complex)
    rho0[5, 5] = rho0[2, 2] = 0.5
    rho0[2, 5] = rho0[5, 2] = 0.25
    times = np.linspace(0.0, 13.3, 301)
    assert len(np.unique(np.diff(times))) > 1   # steps that differ in their last bits
    traj = evolve(lv, rho0, times)
    pops = np.diag(rho0)
    for k, dt in enumerate(np.diff(times), start=1):
        pops = expm(lv.population_generator * dt) @ pops
        assert np.array_equal(np.diag(traj.states[k]), pops)
    ref = rho0 * np.exp(lv.coherence_rates * (times - times[0])[:, None, None])
    off = ~np.eye(6, dtype=bool)
    assert np.array_equal(traj.states[:, off], ref[:, off])


def test_evolve_calls_expm_once_per_distinct_step(monkeypatch):
    import usc_relax.lindblad as lindblad

    steps = []

    def counting_expm(a):
        steps.append(a)
        return expm(a)

    monkeypatch.setattr(lindblad, "expm", counting_expm)
    lv = _six_level_liouvillian()
    rho0 = np.diag([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]).astype(complex)
    times = np.linspace(0.0, 13.3, 301)
    evolve(lv, rho0, times)
    assert len(steps) == len(np.unique(np.diff(times))) < 10
    steps.clear()
    evolve(lv, rho0, np.array([0.0, 1.0, 2.0, 4.0, 5.0, 7.0]))
    assert len(steps) == 2


# ---------------------------------------------------------------------------
# thermalization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("temperature", [0.0, 0.2, 0.5])
def test_gibbs_state_is_stationary(g, temperature, eig_cache):
    params = ModelParams.auto(g=g, epsilon=1.0)
    eig = eig_cache(params, levels=12)
    lv = build_liouvillian(
        eig, params, [cavity_bath(0.05), dipole_bath(0.2)], temperature, m_levels=12
    )
    rho = gibbs_state(lv.level_freqs, temperature)
    residual = np.linalg.norm(lv.apply(rho))
    assert residual < 1e-12


@pytest.mark.parametrize("freqs, temperature", [
    (np.array([-0.3, -0.3 + 1e-13, 0.4, 1.1, 2.9]), 0.0),   # degenerate ground
    (np.array([-0.3, 0.1, 0.4, 1.1, 2.9, 4.0]), 0.2),
])
def test_gibbs_state_diagonal_is_thermal_weights(freqs, temperature):
    rho = gibbs_state(freqs, temperature)
    assert np.array_equal(rho, np.diag(rho.diagonal()))
    assert np.array_equal(rho.diagonal().real, thermal_weights(freqs, temperature))
    if temperature == 0.0:
        assert np.array_equal(rho.diagonal().real, [0.5, 0.5, 0.0, 0.0, 0.0])


def test_steady_state_matches_gibbs(eig_cache):
    params = ModelParams.auto(g=1.0, epsilon=1.0)
    eig = eig_cache(params, levels=12)
    lv = build_liouvillian(
        eig, params, [cavity_bath(0.05), dipole_bath(0.2)], temperature=0.2, m_levels=12
    )
    rho = steady_state(lv)
    ref = gibbs_state(lv.level_freqs, 0.2)
    assert 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - ref))) < 1e-10


def test_decoupled_sector_reports_degenerate_kernel():
    # cavity-only bath at g = 0 leaves the qubit populations untouched
    params, eig = _qubit_system()
    lv = build_liouvillian(eig, params, [cavity_bath(0.05)], 0.0, m_levels=6)
    with pytest.raises(DegenerateSteadyStateError, match="kernel dimension"):
        steady_state(lv)


def test_two_absorbing_levels_report_degenerate_kernel():
    # jumps 2 -> 0 and 2 -> 1 only: one connected graph, two closed classes
    rates = np.zeros((3, 3))
    rates[0, 2] = 0.1
    rates[1, 2] = 0.05
    lv = Liouvillian(
        level_freqs=np.array([0.0, 0.5, 1.0]),
        rates=rates,
        temperature=0.0,
        baths=(),
    )
    with pytest.raises(DegenerateSteadyStateError, match="kernel dimension 2"):
        steady_state(lv)


# ---------------------------------------------------------------------------
# closed-form limits
# ---------------------------------------------------------------------------

def test_weak_coupling_gap_is_half_gamma():
    gamma = 0.05
    params = ModelParams(g=0.0, epsilon=0.0, n_fock=30)
    eig = diagonalize(build_rabi(params))
    lv = build_liouvillian(
        eig, params, [cavity_bath(gamma), dipole_bath(4 * gamma)], 0.0, m_levels=12
    )
    assert liouvillian_gap(lv) == pytest.approx(-gamma / 2.0, abs=1e-9)


def test_two_level_amplitude_damping_spectrum():
    kappa = 0.2
    params, eig = _qubit_system(omega_d=0.7)
    lv = build_liouvillian(eig, params, [dipole_bath(kappa)], 0.0, m_levels=2)
    rate = kappa * 0.7**3 * 0.25  # J(omega_d) |<g|s_x|e>|^2
    vals = liouvillian_eigenvalues(lv)
    # {0, -rate/2 +- i omega_d, -rate}
    assert abs(vals[0]) < 1e-14
    assert sorted(v.real for v in vals) == pytest.approx(
        [-rate, -rate / 2.0, -rate / 2.0, 0.0], abs=1e-14
    )
    ham = np.diag(lv.level_freqs).astype(complex)
    c = np.zeros((2, 2), dtype=complex)
    c[0, 1] = 1.0
    assert np.allclose(lv.matrix, oracles.dense_lindblad_generator(ham, [(c, rate)]), atol=1e-14)


def test_evolution_matches_exponential_decay():
    kappa = 0.2
    params, eig = _qubit_system(omega_d=0.7)
    lv = build_liouvillian(eig, params, [dipole_bath(kappa)], 0.0, m_levels=2)
    rate = kappa * 0.7**3 * 0.25
    rho0 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    times = np.linspace(0.0, 3.0 / rate, 40)
    traj = evolve(lv, rho0, times, observables={"p_e": np.diag([0.0, 1.0]).astype(complex)})
    assert np.max(np.abs(traj.observables["p_e"] - np.exp(-rate * times))) < 1e-6
    assert traj.trace_drift() < 1e-9
    assert traj.min_eigenvalue() > -1e-9


def test_project_pure_state_accounting():
    params = ModelParams.auto(g=2.0)
    eig = certified_eigensystem(params, levels=6, builder=build_polaron_rabi)
    # the fifth excited eigenvector is outside a 4-level retention
    psi = (eig.vectors[:, 0] + eig.vectors[:, 5]) / math.sqrt(2.0)
    rho0, deficit = project_pure_state(eig, psi, 4)
    assert deficit == pytest.approx(0.5, abs=1e-12)
    assert np.trace(rho0).real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="converged"):
        project_pure_state(eig, psi, 20)


# ---------------------------------------------------------------------------
# damped-oscillation fit
# ---------------------------------------------------------------------------

def test_fit_recovers_synthetic_parameters():
    times = np.linspace(0.0, 220.0, 2200)
    values = 0.5 * np.cos(0.3 * times) * np.exp(-0.01 * times) + 0.25
    fit = fit_rabi_decay(times, values)
    assert fit.omega == pytest.approx(0.3, rel=1e-3)
    assert fit.decay == pytest.approx(0.01, rel=1e-2)
    assert fit.n_extrema >= 10
    assert fit.n_periods > 10


def test_fit_rejects_overdamped_series():
    times = np.linspace(0.0, 100.0, 800)
    with pytest.raises(OverdampedSeriesError):
        fit_rabi_decay(times, np.exp(-0.05 * times))


def test_fit_rejects_short_series():
    times = np.linspace(0.0, 40.0, 400)
    values = np.cos(0.3 * times)  # under two periods
    with pytest.raises(ValueError, match="periods"):
        fit_rabi_decay(times, values)
