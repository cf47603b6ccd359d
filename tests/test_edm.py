"""Effective dipole master equation: emission spectrum, cooling, ladder dynamics.

gamma_T is cross-validated against direct quadrature of the displacement
autocorrelation function, which never touches the double Poisson ladder
expansion used by the implementation.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from usc_relax import grwa
from usc_relax.edm import (
    EdmParams,
    NoNetCoolingError,
    TruncationLeakWarning,
    effective_dipole_evolve,
    _sidebands,
    gamma_T,
    net_rate,
    resolve_cutoff,
    saturation_number,
    total_rate,
    validity_report,
)
from usc_relax.lindblad import thermal_occupation
from usc_relax.operators import ModelParams


# ---------------------------------------------------------------------------
# parameters and cutoff resolution
# ---------------------------------------------------------------------------

def test_params_validation_and_derived():
    p = EdmParams(g=2.0, temperature=1.0)
    assert p.x == pytest.approx(2.0)
    assert p.nbar == pytest.approx(thermal_occupation(1.0, 1.0))
    with pytest.raises(ValueError):
        EdmParams(gamma=0.0)
    with pytest.raises(ValueError):
        EdmParams(n_wells=0)
    with pytest.raises(ValueError):
        EdmParams(temperature=-0.1)


def test_auto_cutoff_grows_with_coupling_and_temperature():
    cold_small = resolve_cutoff(EdmParams(g=1.0, temperature=0.0))
    hot_large = resolve_cutoff(EdmParams(g=2.0, temperature=2.0))
    assert hot_large > cold_small
    assert resolve_cutoff(EdmParams(g=2.0, temperature=2.0)) == 39


# ---------------------------------------------------------------------------
# emission rate function
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_gamma_t_matches_autocorrelation_quadrature(temperature):
    p = EdmParams(g=1.0, epsilon=1.0, gamma=0.1, temperature=temperature)
    for omega in (1.0, 2.0, -1.0, 0.37):
        mine = gamma_T(omega, p)
        ref = oracles.dipole_rate_via_quadrature(
            omega, p.x, p.nbar, p.omega_c, p.gamma, p.omega_d, p.n_wells
        )
        assert mine == pytest.approx(ref, rel=1e-7, abs=1e-12)


@given(
    omega=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    g=st.floats(min_value=0.1, max_value=2.5, allow_nan=False),
    temperature=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_gamma_t_is_nonnegative(omega, g, temperature):
    p = EdmParams(g=g, temperature=temperature)
    assert gamma_T(omega, p) >= 0.0


def test_dominant_resonant_term_weight():
    # at x = 1, T = 0 the omega = omega_c peak is the (q=1, r=0) Poisson
    # term x^2 e^{-x^2} = 1/e, plus small neighbouring Lorentzian tails
    p = EdmParams(g=1.0, epsilon=1.0, gamma=0.1, temperature=0.0)
    assert gamma_T(1.0, p) / p.gamma_d == pytest.approx(0.368381, abs=1e-6)
    # finite gamma pushes the peak a little above the bare Poisson weight e^{-1}
    assert gamma_T(1.0, p) / p.gamma_d == pytest.approx(math.exp(-1.0), rel=2e-3)


def test_peaks_sit_on_integer_multiples():
    omegas = np.arange(-3.6, 3.6, 2e-3)

    def local_max_freqs(p):
        vals = np.array([gamma_T(w, p) for w in omegas])
        idx = np.nonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:]))[0] + 1
        return omegas[idx]

    hot = local_max_freqs(EdmParams(g=1.0, gamma=0.1, temperature=2.0))
    assert len(hot) == 7  # q - r from -3 to 3 within the window
    assert np.max(np.abs(hot - np.round(hot))) < 2e-3
    cold = local_max_freqs(EdmParams(g=1.0, gamma=0.1, temperature=0.0))
    assert np.all(cold > 0.5)  # no anti-Stokes lines at T = 0


def _gamma_T_double_sum(omega, p):
    """Reference: the rate as the (q, r) double sum, each Poisson weight from its factorial."""
    cutoff = resolve_cutoff(p)
    x2 = p.x**2
    wq = np.array([(x2 * (1.0 + p.nbar)) ** q / math.factorial(q) for q in range(cutoff + 1)])
    wr = np.array([(x2 * p.nbar) ** r / math.factorial(r) for r in range(cutoff + 1)])
    q = np.arange(cutoff + 1)
    delta = omega - p.omega_c * (q[:, None] - q[None, :])
    lor = (p.gamma**2 / 4.0) / (delta**2 + p.gamma**2 / 4.0)
    weights = wq[:, None] * wr[None, :]
    weights[0, 0] = 0.0
    return p.gamma_d * math.exp(-x2 * (1.0 + 2.0 * p.nbar)) * float((weights * lor).sum())


@pytest.mark.parametrize("temperature", [0.0, 2.0])
def test_gamma_T_comb_matches_per_call_rate(temperature):
    p = EdmParams(g=1.3, omega_d=0.8, n_wells=2, gamma=0.1, temperature=temperature)
    comb = np.linspace(-4.0, 4.0, 1601)
    rates = gamma_T(comb, p)
    assert np.array_equal(rates, [gamma_T(float(w), p) for w in comb])
    ref = np.array([_gamma_T_double_sum(float(w), p) for w in comb])
    assert np.max(np.abs(rates - ref) / ref) <= 1e-14


def _net_rate_50_digits(omega, p):
    """Reference: sum_d W_d [L(omega - d omega_c) - L(omega + d omega_c)] at 50 digits."""
    with mpmath.workdps(50):
        h = mpmath.mpf(p.gamma) ** 2 / 4
        w = mpmath.mpf(omega)
        total = mpmath.mpf(0)
        for d, weight in zip(*(a.tolist() for a in _sidebands(p))):
            shift = d * mpmath.mpf(p.omega_c)
            total += weight * (h / ((w - shift) ** 2 + h) - h / ((w + shift) ** 2 + h))
        x2 = mpmath.mpf(p.x) ** 2
        return p.gamma_d * mpmath.exp(-x2 * (1 + 2 * mpmath.mpf(p.nbar))) * total


def test_net_rate_near_zero_frequency_keeps_its_digits():
    # there Gamma_T(w) and Gamma_T(-w) nearly cancel, so their difference
    # lost most of its digits (3.9e-10 relative error at 1e-4)
    p = EdmParams(g=1.0, gamma=0.1, temperature=2.0)
    omegas = np.array([0.005, -0.005, 1e-4, -1e-4])
    nets = net_rate(omegas, p)
    assert np.array_equal(nets, [net_rate(float(w), p) for w in omegas])
    for omega, net in zip(omegas.tolist(), nets):
        ref = _net_rate_50_digits(omega, p)
        assert abs(net - ref) <= 1e-14 * abs(ref)
    comb = np.linspace(-4.0, 4.0, 161)
    assert np.array_equal(net_rate(-comb, p), -net_rate(comb, p))   # exactly odd
    assert np.allclose(net_rate(comb, p), gamma_T(comb, p) - gamma_T(-comb, p), rtol=0.0,
                       atol=1e-14 * gamma_T(comb, p).max())


def test_resonance_ratios_follow_detailed_balance():
    p = EdmParams(g=1.0, gamma=0.1, temperature=2.0)
    for k in (1, 2, 3):
        ratio = gamma_T(-float(k), p) / gamma_T(float(k), p)
        assert abs(ratio - math.exp(-k / 2.0)) / math.exp(-k / 2.0) < 0.05


def test_purcell_limit_at_resonance():
    # T = 0, epsilon = k omega_c: net rate ~ Omega_(k,k)^2 N / gamma within 2%
    for x in (1.0, 2.0):
        for k in (1, 2, 3):
            p = EdmParams(g=x, epsilon=float(k), gamma=0.1, temperature=0.0)
            model = ModelParams(g=x, n_fock=40)
            omega_kk = grwa.rabi_frequency(k, k, model)
            purcell = omega_kk**2 * p.n_wells / p.gamma
            assert abs(total_rate(p) - purcell) / purcell < 0.02


def test_multi_well_scaling_is_linear():
    base = EdmParams(g=1.0, epsilon=1.0, gamma=0.1, temperature=0.0)
    many = EdmParams(g=1.0, epsilon=1.0, gamma=0.1, temperature=0.0, n_wells=7)
    assert gamma_T(1.0, many) == pytest.approx(7.0 * gamma_T(1.0, base), rel=1e-12)


# ---------------------------------------------------------------------------
# cooling and saturation
# ---------------------------------------------------------------------------

def test_saturation_number_tracks_thermal_occupation():
    p = EdmParams(g=1.0, epsilon=1.0, gamma=0.1, temperature=1.0)
    n0 = saturation_number(p)
    assert n0 == pytest.approx(0.584616, abs=1e-5)
    ref = thermal_occupation(1.0, 1.0)
    assert abs(n0 - ref) / ref < 0.2


def test_saturation_number_monotone_in_temperature():
    values = [
        saturation_number(EdmParams(g=1.0, epsilon=1.0, gamma=0.1, temperature=t))
        for t in (0.5, 1.0, 1.5, 2.0)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_no_net_cooling_for_red_shifted_drive():
    # detailed balance keeps the blue sideband stronger, so net relaxation only
    # reverses when the asymmetry itself flips sign
    with pytest.raises(NoNetCoolingError, match="no net relaxation"):
        saturation_number(EdmParams(g=1.0, epsilon=-1.0, gamma=0.1, temperature=0.5))


def test_midpoint_drive_still_cools_but_saturates_high():
    sat = saturation_number(EdmParams(g=1.0, epsilon=0.5, gamma=0.1, temperature=2.0))
    assert sat == pytest.approx(4.0889, abs=2e-3)


def test_validity_report_flags():
    good = validity_report(EdmParams(g=3.0, epsilon=1.0, gamma=0.1, temperature=0.0))
    assert good.adiabatic_ok and good.usc_ok
    assert good.k == 1
    assert good.splitting == pytest.approx(3.0 * math.exp(-4.5))
    bad = validity_report(EdmParams(g=0.5, epsilon=1.0, gamma=0.1, temperature=0.0))
    assert not bad.adiabatic_ok
    assert not bad.usc_ok
    assert bad.messages


def test_validity_report_is_even_in_epsilon():
    # the resonances sit at |epsilon| = k omega_c, so -2 is as near k = 2 as +2
    reports = [
        validity_report(EdmParams(g=1.5, epsilon=eps, gamma=0.1, temperature=0.5))
        for eps in (-2.0, 2.0)
    ]
    checks = [(r.k, r.splitting, r.thermal_reference, r.adiabatic_ok) for r in reports]
    assert checks[0] == checks[1]
    assert reports[0].k == 2


def test_validity_messages_print_the_numbers_they_compare():
    # three significant digits would round g = 0.999 to "1 < 1"
    report = validity_report(EdmParams(g=0.999, epsilon=1.0, gamma=0.1, temperature=0.0))
    gamma_message, usc_message = report.messages
    assert "g/omega_c=0.999 < 1" in usc_message
    assert f"splitting {report.splitting!r}" in gamma_message


# ---------------------------------------------------------------------------
# ladder dynamics
# ---------------------------------------------------------------------------

def test_single_excitation_decay_closed_form():
    p = EdmParams(g=1.0, epsilon=1.0, gamma=0.1, temperature=0.0, n_boson=12)
    cool = gamma_T(1.0, p)
    heat = gamma_T(-1.0, p)
    net = cool - heat
    n0 = heat / net
    times = np.linspace(0.0, 5.0 / net, 60)
    traj = effective_dipole_evolve(p, 1, times)
    excitation = traj.observables["excitation"]
    # exact two-rate solution; the tiny heating tail of the Lorentzians
    # keeps a C((gamma/2 omega_c)^2) floor even at T = 0
    exact = n0 + (1.0 - n0) * np.exp(-net * times)
    assert np.max(np.abs(excitation - exact)) < 1e-8
    assert np.max(np.abs(excitation - np.exp(-net * times))) < 2e-3
    assert excitation[0] == pytest.approx(1.0, abs=1e-12)


def test_thermal_ladder_reaches_saturation():
    p = EdmParams(g=1.0, epsilon=1.0, gamma=0.1, temperature=1.0, n_boson=18)
    net = total_rate(p)
    times = np.linspace(0.0, 16.0 / net, 80)
    traj = effective_dipole_evolve(p, 2, times)
    final = traj.observables["excitation"][-1]
    assert final == pytest.approx(saturation_number(p), abs=2e-6)
    assert oracles.trace_drift(traj.populations) < 1e-9


def test_truncation_leak_warning_fires():
    p = EdmParams(g=1.0, epsilon=1.0, gamma=0.1, temperature=1.0, n_boson=14)
    net = total_rate(p)
    times = np.linspace(0.0, 12.0 / net, 40)
    with pytest.warns(TruncationLeakWarning):
        effective_dipole_evolve(p, 2, times)
