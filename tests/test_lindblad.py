"""Thermal Lindblad assembly in the dressed eigenbasis, evolution, and fits.

The rate-matrix generator, its spectrum and its exact propagation are
cross-checked against an independent dense Kronecker construction, and the
weak-coupling / two-level limits against closed forms.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import oracles
from oracles import DegenerateSteadyStateError, gibbs_state, spin_operators, steady_state
from usc_relax import edm
from usc_relax.eigen import EigenSystem, certified_eigensystem, diagonalize
from usc_relax.lindblad import (
    DEGENERACY_TOL,
    GAP_FLOOR,
    BathSpec,
    Liouvillian,
    OverdampedSeriesError,
    _symmetrized,
    build_liouvillian,
    cavity_bath,
    coupling_elements,
    dipole_bath,
    evolve,
    fit_rabi_decay,
    liouvillian_eigenvalues,
    liouvillian_gap,
    project_pure_state,
    thermal_occupation,
    transition_lines,
)
from usc_relax.operators import ModelParams, build_polaron_rabi, default_n_fock, rabi_bands
from usc_relax.response import thermal_weights


def _qubit_system(levels, omega_d=0.7, n_fock=8):
    params = ModelParams(g=0.0, omega_d=omega_d, epsilon=0.0, n_fock=n_fock)
    eig = diagonalize(rabi_bands(params), levels)
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
    with pytest.raises(ValueError, match="channel"):
        BathSpec(channel="flux", law="ohmic", strength=0.1, ref_freq=1.0)
    with pytest.raises(ValueError, match="law"):
        BathSpec(channel="cavity", law="lorentzian", strength=0.1, ref_freq=1.0)
    with pytest.raises(ValueError, match="strength"):
        BathSpec(channel="cavity", law="ohmic", strength=-0.1, ref_freq=1.0)


def test_coupling_elements_match_the_dense_operators():
    # lab frame (real band vectors), polaron frame (dense eigh vectors), and
    # random complex orthonormal vectors of a spin-1 (spin_n = 2) truncation
    params = ModelParams(g=1.5, epsilon=0.5, n_fock=30)
    spin1 = ModelParams(n_fock=12, spin_n=2)
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(spin1.dim, 10)) + 1j * rng.normal(size=(spin1.dim, 10)))
    frames = {
        "lab": (params, diagonalize(rabi_bands(params), 16)),
        "polaron": (params, diagonalize(build_polaron_rabi(params), 16)),
        "spin1": (spin1, EigenSystem(frequencies=np.arange(10.0), vectors=q)),
    }
    for frame, (params, eig) in frames.items():
        v = eig.vectors
        for channel in ("cavity", "dipole"):
            ref = v.conj().T @ oracles.coupling_operator(params, channel) @ v
            elem = coupling_elements(eig, params, channel)
            assert np.max(np.abs(elem - ref)) <= 1e-13, (frame, channel)
        # quadrature anti-Hermitian, dipole Hermitian, in either frame
        cav = coupling_elements(eig, params, "cavity")
        dip = coupling_elements(eig, params, "dipole")
        assert np.allclose(cav, -cav.conj().T, rtol=0.0, atol=1e-13)
        assert np.allclose(dip, dip.conj().T, rtol=0.0, atol=1e-13)
    params, eig = frames["lab"]
    with pytest.raises(ValueError, match="channel"):
        coupling_elements(eig, params, "flux")
    with pytest.raises(ValueError, match="dim"):
        coupling_elements(eig, ModelParams(n_fock=31), "cavity")


@pytest.mark.parametrize("spin_n", [1, 2, 3, 4, 5])
def test_dipole_elements_are_spin_operators_sx_bit_for_bit(spin_n):
    # on unit vectors each element is one S_x entry, so the closed-form
    # steps sqrt(j(j+1) - m(m+1))/2 must equal spin_operators' exactly
    params = ModelParams(n_fock=3, spin_n=spin_n)
    eig = EigenSystem(frequencies=np.arange(float(params.dim)), vectors=np.eye(params.dim))
    sx = spin_operators(spin_n)[0].entries.real
    assert np.array_equal(coupling_elements(eig, params, "dipole"), np.kron(sx, np.eye(3)))


# ---------------------------------------------------------------------------
# Liouvillian assembly
# ---------------------------------------------------------------------------

def test_generator_preserves_trace_and_hermiticity():
    params = ModelParams.auto(g=1.0, epsilon=0.3)
    eig = certified_eigensystem(params, levels=10, builder=build_polaron_rabi)
    lv = build_liouvillian(
        eig, params, [cavity_bath(0.05), dipole_bath(0.2)], temperature=0.3
    )
    rng = np.random.default_rng(11)
    for _ in range(20):
        probe = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        probe = probe + probe.conj().T
        out = oracles.apply_liouvillian(lv, probe)
        assert abs(np.trace(out)) < 1e-12 * np.linalg.norm(probe)
        assert np.linalg.norm(out - out.conj().T) < 1e-12 * np.linalg.norm(out)


def test_exactly_one_stationary_mode():
    params = ModelParams.auto(g=1.0, epsilon=0.3)
    eig = certified_eigensystem(params, levels=10, builder=build_polaron_rabi)
    lv = build_liouvillian(
        eig, params, [cavity_bath(0.05), dipole_bath(0.2)], temperature=0.2
    )
    vals = liouvillian_eigenvalues(lv)
    assert np.count_nonzero(np.abs(vals) < 1e-9) == 1
    assert np.all(vals.real <= 1e-12)


def test_upward_downward_ratio_is_exact_boltzmann():
    params = ModelParams.auto(g=2.0, epsilon=0.4)
    eig = certified_eigensystem(params, levels=8, builder=build_polaron_rabi)
    temperature = 0.35
    lv = build_liouvillian(eig, params, [cavity_bath(0.05)], temperature)
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
    lv = build_liouvillian(eig, params, [cavity_bath(0.05)], 0.0)
    assert not np.any(np.tril(lv.rates))   # every jump rates[to, from] has from > to


def test_matches_dense_kron_generator():
    # reassemble from the jump rates with an independent construction
    params = ModelParams.auto(g=1.5, epsilon=0.3)
    eig = certified_eigensystem(params, levels=8, builder=build_polaron_rabi)
    lv = build_liouvillian(
        eig, params, [cavity_bath(0.04), dipole_bath(0.16)], temperature=0.25
    )
    ref = _oracle_generator(lv)
    assert np.allclose(oracles.superoperator(lv), ref, atol=1e-13)


def _per_bath_rates(eig, params, baths, temperature):
    """The jump rates with the Boltzmann factors formed again for each bath."""
    m = len(eig.frequencies)
    rates = np.zeros((m, m))
    for bath in baths:
        gap, elem2 = transition_lines(eig, params, bath.channel)
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
    lv = build_liouvillian(eig, params, baths, temperature)
    assert np.array_equal(lv.rates, _per_bath_rates(eig, params, baths, temperature))
    assert not np.any(build_liouvillian(eig, params, [], temperature).rates)


def test_build_liouvillian_rejects_a_single_level():
    params = ModelParams(g=1.0, n_fock=20)
    one = diagonalize(rabi_bands(params), 1)
    with pytest.raises(ValueError, match="at least 2 levels, got 1"):
        build_liouvillian(one, params, [cavity_bath(0.05)])


@pytest.mark.parametrize("temperature", [0.0, 0.3])
def test_gap_matches_dense_oracle_spectrum(temperature, eig_cache):
    # epsilon = 0 at g = 3: the gap is exponentially suppressed (~4e-7 at T = 0)
    params = ModelParams.auto(g=3.0, epsilon=0.0)
    eig = eig_cache(params, levels=20)
    lv = build_liouvillian(
        eig, params, [cavity_bath(0.05), dipole_bath(0.2)], temperature
    )
    vals = np.linalg.eigvals(_oracle_generator(lv))
    vals = vals[np.lexsort((np.abs(vals.imag), -vals.real))]
    slowest = np.delete(vals, np.argmin(np.abs(vals)))[0].real
    assert liouvillian_gap(lv) == pytest.approx(slowest, rel=1e-10)


@pytest.mark.parametrize("temperature", [0.0, 0.01, 0.1, 1.0])
@pytest.mark.parametrize("g, epsilon", [
    (0.0, 0.0), (0.0, 0.4), (1.0, 0.0), (2.0, 1.0), (3.0, 2.0), (3.5, 0.3),
])
def test_symmetrized_gap_matches_general_eigensolve(g, epsilon, temperature):
    # g = 0 has exactly degenerate levels; at T = 0.01 most Boltzmann factors
    # underflow past w/T > 700; the baths are gap_map's
    params = ModelParams(g=g, epsilon=epsilon, n_fock=60)
    eig = diagonalize(rabi_bands(params), 24)
    lv = build_liouvillian(eig, params, [cavity_bath(0.05), dipole_bath(0.2)], temperature)
    assert liouvillian_gap(lv) == pytest.approx(oracles.gap_via_general_eig(lv), rel=1e-10)
    assert "population_generator" not in vars(lv) and "coherence_rates" not in vars(lv)


def _three_level_cycle(scale_up_2_from_0=1.0):
    """Three levels, every pair coupled, upward rates Boltzmann-weighted."""
    freqs, temperature = np.array([0.0, 0.5, 1.2]), 0.4
    rates = np.zeros((3, 3))
    for lo, hi, down in ((0, 1, 0.1), (1, 2, 0.07), (0, 2, 0.03)):
        rates[lo, hi] = down
        rates[hi, lo] = down * math.exp(-(freqs[hi] - freqs[lo]) / temperature)
    rates[2, 0] *= scale_up_2_from_0
    return Liouvillian(level_freqs=freqs, rates=rates, temperature=temperature)


def test_unbalanced_rates_are_refused():
    balanced = _three_level_cycle()
    gap = liouvillian_gap(balanced)
    assert gap == pytest.approx(oracles.gap_via_general_eig(balanced), rel=1e-12)
    assert liouvillian_eigenvalues(balanced)[1].real == gap
    # a last-bit difference is rounding; 1e-9 relative drives a net current
    # around the cycle 0 -> 2 -> 1 -> 0, which no symmetrization represents
    assert liouvillian_gap(_three_level_cycle(1.0 + 4 * np.finfo(float).eps)) < 0.0
    for lv in (_three_level_cycle(1.0 + 1e-9), _three_level_cycle(3.0)):
        with pytest.raises(ValueError, match="detailed balance"):
            liouvillian_gap(lv)
        with pytest.raises(ValueError, match="detailed balance"):
            liouvillian_eigenvalues(lv)


@pytest.mark.parametrize("temperature", [0.0, 0.3])
def test_exactly_degenerate_pair_needs_equal_rates(temperature):
    # levels 1 and 2 share a frequency, so their Boltzmann weights are equal
    freqs = np.array([0.0, 0.7, 0.7])
    rates = np.zeros((3, 3))
    rates[0, 1:] = [0.1, 0.05]
    rates[1:, 0] = rates[0, 1:] * (math.exp(-0.7 / temperature) if temperature else 0.0)
    rates[1, 2] = rates[2, 1] = 0.02
    lv = Liouvillian(level_freqs=freqs, rates=rates, temperature=temperature)
    assert liouvillian_gap(lv) == pytest.approx(oracles.gap_via_general_eig(lv), rel=1e-12)
    rates = rates.copy()
    rates[1, 2] = 0.03
    with pytest.raises(ValueError, match="detailed balance"):
        liouvillian_gap(Liouvillian(level_freqs=freqs, rates=rates, temperature=temperature))


# gap_map's baths at epsilon = 0, T = 0.1: the gap falls exponentially with g
# and drops below the float64 floor of eigvalsh(S) between g = 5 and 6
_FLOOR_BATHS = (cavity_bath(0.05), dipole_bath(0.2))


def _deep_usc_liouvillian(g):
    params = ModelParams(g=g, epsilon=0.0, n_fock=default_n_fock(g))
    eig = certified_eigensystem(params, levels=24)
    return build_liouvillian(eig, params, _FLOOR_BATHS, temperature=0.1)


def test_gap_above_the_float64_floor_is_reported():
    # g = 5 sits at 2.8e4 eps ||S||; the 60-digit truth of these rates is -3.99048e-12
    assert liouvillian_gap(_deep_usc_liouvillian(5.0)) == pytest.approx(-3.99048e-12, rel=1e-5)


@pytest.mark.parametrize("g", [6.0, 7.0])
def test_gap_below_the_float64_floor_is_refused(g):
    # eigvalsh returns -1.25e-16 and -1.02e-16 here, 0.98 and 0.85 eps ||S||;
    # the 60-digit truths are -1.61e-16 and -1.09e-17
    lv = _deep_usc_liouvillian(g)
    with pytest.raises(ValueError, match="below the float64 floor"):
        liouvillian_gap(lv)
    sym = np.linalg.eigvalsh(_symmetrized(lv)[0])
    assert abs(sym[-2]) < GAP_FLOOR * np.finfo(float).eps * abs(sym[0])


@pytest.mark.parametrize("scale", [1e-12, 1e8])
def test_gap_scales_with_the_rates(scale):
    # at scale 1e8, ||S||_2 = 2.0e9 and eigvalsh puts the stationary mode at
    # -2.0e-8, 0.045 eps ||S||_2: rounding, which an absolute 1e-9 refused
    params = ModelParams(g=1.0, epsilon=0.5, n_fock=60)
    eig = diagonalize(rabi_bands(params), 24)
    lv = build_liouvillian(eig, params, [cavity_bath(1.0), dipole_bath(1.0)], temperature=0.5)
    scaled = Liouvillian(lv.level_freqs, scale * lv.rates, lv.temperature)
    assert liouvillian_gap(scaled) == pytest.approx(scale * liouvillian_gap(lv), rel=1e-14)


def test_evolve_with_coherences_matches_expm_of_dense_oracle():
    params = ModelParams.auto(g=1.5, epsilon=0.3)
    eig = certified_eigensystem(params, levels=8, builder=build_polaron_rabi)
    lv = build_liouvillian(
        eig, params, [cavity_bath(0.04), dipole_bath(0.16)], temperature=0.25
    )
    rng = np.random.default_rng(3)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    times = np.linspace(0.0, 40.0, 21)
    xs = {f"x{n}": _random_hermitian(rng, 8) for n in range(4)}
    traj = evolve(lv, rho0, times, xs)
    gen = _oracle_generator(lv)
    ref = np.array([(expm(gen * t) @ rho0.reshape(-1)).reshape(8, 8) for t in times])
    for name, x in xs.items():
        assert np.max(np.abs(traj.observables[name] - np.einsum("ij,tji->t", x, ref).real)) < 1e-12


def _random_hermitian(rng, m):
    x = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return x + x.conj().T


# per-level phase products against exp(lam_ij t), in eps ((|mu_i| + |mu_j|) t + 1);
# at most 0.96 measured over 30 random six-level spectra with t up to 1e5
PHASE_RTOL = 4.0


def _assert_coherences_within_phase_bound(lv, rho0, times):
    """Each rho_ji(t), i != j, read through evolve against the oracle's dense states.

    rho_ji = Re tr(E rho) - i Re tr(iE rho) with E = |i><j|.  evolve's a_i
    conj(a_j) differs from exp(lam_ij t) by a few eps (|mu_i| + |mu_j|) t,
    mu_i = -G_i/2 - i(w_i - w_0), so an entry empty in rho0 stays exactly 0.
    """
    m = lv.m_levels
    pairs = list(zip(*np.nonzero(~np.eye(m, dtype=bool))))
    units = {}
    for i, j in pairs:
        e = np.zeros((m, m), dtype=complex)
        e[i, j] = 1.0
        units[f"{i},{j}"], units[f"i{i},{j}"] = e, 1j * e
    obs = evolve(lv, rho0, times, units).observables
    ref = oracles.dense_states(lv, rho0, times)
    w = lv.level_freqs
    mu = np.abs(-lv.rates.sum(axis=0) / 2.0 - 1j * (w - w.min()))
    t = times - times[0]
    for i, j in pairs:
        read = obs[f"{i},{j}"] - 1j * obs[f"i{i},{j}"]
        bound = PHASE_RTOL * np.finfo(float).eps * ((mu[i] + mu[j]) * t + 1.0) * abs(rho0[j, i])
        assert np.all(np.abs(read - ref[:, j, i]) <= bound)


def _six_level_liouvillian():
    params = ModelParams.auto(g=1.5, epsilon=0.3)
    eig = certified_eigensystem(params, levels=6, builder=build_polaron_rabi)
    return build_liouvillian(
        eig, params, [cavity_bath(0.04), dipole_bath(0.16)], temperature=0.25
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
        assert np.array_equal(traj.populations[k], pops)
    _assert_coherences_within_phase_bound(lv, rho0, times)


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


def _sparse_coherences():
    """Non-Hermitian complex rho0 with pairs (0, 1) and (2, 4) all zero, and one one-sided pair."""
    rng = np.random.default_rng(14)
    rho0 = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho0[0, 1] = rho0[1, 0] = rho0[2, 4] = rho0[4, 2] = 0.0
    rho0[3, 5] = 0.0
    return rho0


@pytest.mark.parametrize(
    "rho0",
    [
        _sparse_coherences(),
        np.random.default_rng(15).normal(size=(6, 6)),
        np.diag([0.1, 0.0, 0.2, 0.0, 0.3, 0.4]),
    ],
    ids=["complex-non-hermitian", "real-float64", "diagonal"],
)
def test_evolve_coherences_and_populations_are_exact(rho0):
    # populations bit for bit; coherences empty in rho0 (all of them for the
    # diagonal state) stay exactly 0, the others within the phase bound
    lv = _six_level_liouvillian()
    times = np.concatenate([np.linspace(0.0, 13.3, 41), [20.0, 31.5]])
    traj = evolve(lv, rho0, times)
    _assert_coherences_within_phase_bound(lv, rho0, times)
    pops = np.diag(rho0)
    assert np.array_equal(traj.populations[0], pops)
    for k, dt in enumerate(np.diff(times), start=1):
        pops = expm(lv.population_generator * dt) @ pops
        assert np.array_equal(traj.populations[k], pops)


def test_evolve_takes_one_exponential_per_time_and_occupied_level(monkeypatch):
    lv = _six_level_liouvillian()
    sizes = []
    real_exp = np.exp

    def counting_exp(x, *args, **kwargs):
        sizes.append(np.size(x))
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    times = np.linspace(0.0, 13.3, 301)
    x = {"x": np.ones((6, 6), dtype=complex)}
    evolve(lv, _sparse_coherences(), times, x)
    assert sum(sizes) == len(times) * 6        # every level is in some occupied pair
    sizes.clear()
    rho0 = np.diag([0.5, 0.1, 0.1, 0.1, 0.1, 0.1]).astype(complex)
    rho0[1, 3] = rho0[4, 1] = 0.01             # levels 1, 3 and 4; one side of each pair
    evolve(lv, rho0, times, x)
    assert sum(sizes) == len(times) * 3
    sizes.clear()
    evolve(lv, np.diag([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]), times, x)
    evolve(lv, _sparse_coherences(), times)     # no observable reads a coherence
    assert sum(sizes) == 0


def test_evolve_memory_is_linear_in_times_and_levels():
    # a (T, M, M) complex state tensor alone would be T M^2 = 3.2e6 complex words
    rng = np.random.default_rng(21)
    m, n_times = 40, 2000
    rates = rng.uniform(0.0, 0.01, size=(m, m))
    np.fill_diagonal(rates, 0.0)
    lv = Liouvillian(level_freqs=np.sort(rng.uniform(0.0, 5.0, m)), rates=rates, temperature=0.0)
    psi = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    rho0 = psi @ psi.conj().T
    rho0 /= np.trace(rho0).real
    assert np.linalg.matrix_rank(rho0) == m
    times = np.linspace(0.0, 100.0, n_times)
    tracemalloc.start()
    try:
        traj = evolve(lv, rho0, times, {"x": _random_hermitian(rng, m)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.observables["x"].shape == (n_times,)
    assert peak < 16 * n_times * m * np.dtype(complex).itemsize


def test_min_eigenvalue_is_the_lowest_over_all_states():
    lv = _six_level_liouvillian()
    psi = np.random.default_rng(16).normal(size=6)
    states = oracles.dense_states(lv, np.outer(psi, psi) / (psi @ psi), np.linspace(0.0, 13.3, 31))
    per_state = min(np.linalg.eigvalsh(s)[0] for s in states)
    assert oracles.min_eigenvalue(states) == per_state


# ---------------------------------------------------------------------------
# thermalization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("temperature", [0.0, 0.2, 0.5])
def test_gibbs_state_is_stationary(g, temperature, eig_cache):
    params = ModelParams.auto(g=g, epsilon=1.0)
    eig = eig_cache(params, levels=12)
    lv = build_liouvillian(
        eig, params, [cavity_bath(0.05), dipole_bath(0.2)], temperature
    )
    rho = gibbs_state(lv.level_freqs, temperature)
    residual = np.linalg.norm(oracles.apply_liouvillian(lv, rho))
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
        eig, params, [cavity_bath(0.05), dipole_bath(0.2)], temperature=0.2
    )
    rho = steady_state(lv)
    ref = gibbs_state(lv.level_freqs, 0.2)
    assert 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - ref))) < 1e-10


def test_decoupled_sector_reports_degenerate_kernel():
    # cavity-only bath at g = 0 leaves the qubit populations untouched; the dense
    # eigh returns exact product states, so those rates are exactly 0 (the band's are ~1e-61)
    params = ModelParams(g=0.0, omega_d=0.7, epsilon=0.0, n_fock=8)
    eig = diagonalize(oracles.build_rabi(params), 6)
    lv = build_liouvillian(eig, params, [cavity_bath(0.05)], 0.0)
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
    )
    with pytest.raises(DegenerateSteadyStateError, match="kernel dimension 2"):
        steady_state(lv)


def test_steady_state_is_the_rate_kernel_not_the_gibbs_formula(monkeypatch):
    # effective_dipole_evolve's ladder is not detailed-balanced: its heat/cool
    # ratio is 0.13667 where e^{-epsilon/T} = 0.13534, so its stationary state is not Gibbs
    captured = []

    def spy(lv, *args, **kwargs):
        captured.append(lv)
        return evolve(lv, *args, **kwargs)

    monkeypatch.setattr(edm, "evolve", spy)
    p = edm.EdmParams(g=1.5, epsilon=1.0, temperature=0.5)
    edm.effective_dipole_evolve(p, 1, np.linspace(0.0, 1.0, 5))
    [lv] = captured
    pops = steady_state(lv).diagonal().real
    ratio = edm.gamma_T(-p.epsilon, p) / edm.gamma_T(p.epsilon, p)
    assert ratio == pytest.approx(0.13667, abs=1e-5)
    assert pops[1] / pops[0] == pytest.approx(ratio, rel=1e-12)
    assert np.linalg.norm(lv.population_generator @ pops) < 1e-14
    gibbs = gibbs_state(lv.level_freqs, p.temperature)
    assert 0.5 * np.sum(np.abs(np.linalg.eigvalsh(steady_state(lv) - gibbs))) > 1e-3


# ---------------------------------------------------------------------------
# closed-form limits
# ---------------------------------------------------------------------------

def test_weak_coupling_gap_is_half_gamma():
    gamma = 0.05
    params = ModelParams(g=0.0, epsilon=0.0, n_fock=30)
    eig = diagonalize(rabi_bands(params), 12)
    lv = build_liouvillian(eig, params, [cavity_bath(gamma), dipole_bath(4 * gamma)], 0.0)
    assert liouvillian_gap(lv) == pytest.approx(-gamma / 2.0, abs=1e-9)


def test_two_level_amplitude_damping_spectrum():
    kappa = 0.2
    params, eig = _qubit_system(2, omega_d=0.7)
    lv = build_liouvillian(eig, params, [dipole_bath(kappa)], 0.0)
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
    ref = oracles.dense_lindblad_generator(ham, [(c, rate)])
    assert np.allclose(oracles.superoperator(lv), ref, atol=1e-14)


def test_evolution_matches_exponential_decay():
    kappa = 0.2
    params, eig = _qubit_system(2, omega_d=0.7)
    lv = build_liouvillian(eig, params, [dipole_bath(kappa)], 0.0)
    rate = kappa * 0.7**3 * 0.25
    rho0 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    times = np.linspace(0.0, 3.0 / rate, 40)
    traj = evolve(lv, rho0, times, observables={"p_e": np.diag([0.0, 1.0]).astype(complex)})
    assert np.max(np.abs(traj.observables["p_e"] - np.exp(-rate * times))) < 1e-6
    assert oracles.trace_drift(traj.populations) < 1e-9
    assert oracles.min_eigenvalue(oracles.dense_states(lv, rho0, times)) > -1e-9


def test_project_pure_state_accounting():
    params = ModelParams.auto(g=2.0)
    eig = certified_eigensystem(params, levels=6, builder=build_polaron_rabi)
    # the fifth excited eigenvector is outside a 4-level retention
    psi = (eig.vectors[:, 0] + eig.vectors[:, 5]) / math.sqrt(2.0)
    rho0, deficit = project_pure_state(EigenSystem(eig.frequencies[:4], eig.vectors[:, :4]), psi)
    assert deficit == pytest.approx(0.5, abs=1e-12)
    assert np.trace(rho0).real == pytest.approx(1.0, abs=1e-12)


def test_retained_eigenvector_has_no_projection_deficit():
    # the deficit is formed from the remainder psi - V V^dag psi, so a
    # retained level loses only the rounding of that remainder, not of 1 - 1
    eig = certified_eigensystem(ModelParams(g=2.0, epsilon=2.0, n_fock=40), levels=20)
    for n in range(20):
        rho0, deficit = project_pure_state(eig, eig.vectors[:, n])
        assert 0.0 <= deficit <= 1e-28
        assert rho0[n, n].real == pytest.approx(1.0, abs=1e-14)


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


def test_generator_blocks_are_built_once_and_read_only():
    params = ModelParams.auto(g=1.0, epsilon=0.3)
    eig = diagonalize(rabi_bands(params), 8)
    lv = build_liouvillian(eig, params, [cavity_bath(0.05)], temperature=0.2)
    for name in ("population_generator", "coherence_rates"):
        block = getattr(lv, name)
        assert getattr(lv, name) is block
        assert not block.flags.writeable
