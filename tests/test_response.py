"""Linear-response spectra: structure factors, impedance, transmission."""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from usc_relax import grwa
from usc_relax.config import load_config
from usc_relax.eigen import RESIDUAL_TOL, certified_eigensystem, diagonalize
from usc_relax.lindblad import coupling_elements
from usc_relax.operators import ModelParams, build_polaron_rabi, default_n_fock, rabi_bands
from usc_relax.response import (
    LINE_BLOCK,
    SpectrumGrid,
    _lorentzian_sum,
    cavity_structure_factor,
    dipole_structure_factor,
    system_impedance,
    thermal_weights,
    transmission,
)
from usc_relax.scan import at_point

EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"


def _eig(params: ModelParams, levels: int = 24):
    return certified_eigensystem(params, levels=levels, builder=build_polaron_rabi)


# ---------------------------------------------------------------------------
# thermal weights
# ---------------------------------------------------------------------------

def test_thermal_weights_ground_projector_at_zero_t():
    freqs = np.array([0.0, 0.5, 1.0, 1.5])
    w = thermal_weights(freqs, 0.0)
    assert np.array_equal(w, [1.0, 0.0, 0.0, 0.0])


def test_thermal_weights_split_degenerate_ground():
    freqs = np.array([0.0, 0.0, 1.0])
    w = thermal_weights(freqs, 0.0)
    assert np.allclose(w, [0.5, 0.5, 0.0])


@given(
    gaps=st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=3, max_size=10),
    temperature=st.floats(min_value=0.01, max_value=0.3),
)
@settings(max_examples=60, deadline=None)
def test_thermal_weights_normalized_boltzmann(gaps, temperature):
    freqs = np.concatenate([[0.0], np.cumsum(gaps)])
    if math.exp(-(freqs[-1] - freqs[0]) / temperature) > 1e-7:
        return  # would be rejected as truncation-unsafe; covered below
    w = thermal_weights(freqs, temperature)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    ratios = w[1:] / w[0]
    assert np.allclose(ratios, np.exp(-(freqs[1:] - freqs[0]) / temperature), rtol=1e-10)


def test_thermal_weights_reject_truncation_leak():
    freqs = np.linspace(0.0, 3.0, 10)
    with pytest.raises(ValueError, match="weight"):
        thermal_weights(freqs, 5.0)


# ---------------------------------------------------------------------------
# structure factors
# ---------------------------------------------------------------------------

def test_bare_cavity_single_line():
    params = ModelParams(g=0.0, epsilon=0.0, n_fock=30)
    # the dense eigh keeps the product basis inside the exact g = 0 pairs {|n+1, dn>, |n, up>}
    eig = diagonalize(oracles.build_rabi(params), 12)
    omegas = np.linspace(0.2, 1.8, 801)
    grid = cavity_structure_factor(eig, params, 0.0, omegas, eta=0.02)
    lines = [(f, w) for f, w in grid.peaks if w > 1e-12]
    assert len(lines) == 1
    freq, weight = lines[0]
    assert freq == pytest.approx(1.0, abs=1e-12)
    assert weight == pytest.approx(1.0, abs=1e-12)
    # values are the weighted Lorentzian comb
    expected = (0.02 / math.pi) / ((omegas - 1.0) ** 2 + 0.02**2)
    assert np.allclose(grid.values, expected, rtol=1e-12)


def test_peak_positions_match_dressed_doublet_at_small_g():
    params = ModelParams.auto(g=0.2)
    eig = _eig(params, levels=12)
    omegas = np.linspace(0.5, 1.5, 501)
    grid = cavity_structure_factor(eig, params, 0.0, omegas, eta=0.01)
    strong = sorted(
        [(f, w) for f, w in grid.peaks if w > 0.01], key=lambda t: -t[1]
    )[:2]
    got = sorted(f for f, _ in strong)
    pair = grwa.symmetric_block(params, 1)
    ground = grwa.ground_state_energy(params)
    expected = sorted((pair.omega_minus - ground, pair.omega_plus - ground))
    assert got[0] == pytest.approx(expected[0], abs=1e-3)
    assert got[1] == pytest.approx(expected[1], abs=1e-3)


def test_line_weights_obey_detailed_balance():
    params = ModelParams.auto(g=1.0, epsilon=0.3)
    eig = _eig(params)
    temperature = 0.3
    omegas = np.linspace(-8.0, 8.0, 401)
    grid = cavity_structure_factor(eig, params, temperature, omegas, eta=0.01)
    by_freq: dict[float, float] = {}
    for f, w in grid.peaks:
        by_freq[round(f, 9)] = by_freq.get(round(f, 9), 0.0) + w
    checked = 0
    for f, w in by_freq.items():
        if f <= 1e-9 or w < 1e-13:
            continue
        partner = by_freq.get(round(-f, 9), 0.0)
        # keying on rounded frequencies costs ~1e-9 relative in the exponent
        assert partner / w == pytest.approx(math.exp(-f / temperature), rel=1e-7)
        checked += 1
    assert checked > 50


def test_integrated_spectrum_matches_total_weight():
    params = ModelParams.auto(g=1.0, epsilon=0.3)
    eig = _eig(params)
    omegas = np.linspace(-8.0, 8.0, 8001)
    grid = cavity_structure_factor(eig, params, 0.3, omegas, eta=0.01)
    integral = np.trapezoid(grid.values, omegas)
    total = sum(w for _, w in grid.peaks)
    assert abs(integral - total) / total < 0.01


def test_spectrum_is_nonnegative():
    params = ModelParams.auto(g=2.0, epsilon=0.5)
    eig = _eig(params)
    omegas = np.linspace(-4.0, 4.0, 2001)
    for factory in (cavity_structure_factor, dipole_structure_factor):
        grid = factory(eig, params, 0.2, omegas, eta=0.02)
        assert np.all(grid.values >= 0.0)


def test_dipole_band_weight_collapses_deep_usc():
    # polaron dressing strips the dipole line out of the cavity band:
    # the in-band weight at g = 2.5 is under 5% of the bare 1/4
    omegas = np.linspace(0.5, 1.5, 11)

    def band_weight(g: float) -> float:
        params = ModelParams.auto(g=g)
        eig = _eig(params)
        grid = dipole_structure_factor(eig, params, 1e-4, omegas, eta=0.01)
        return sum(w for f, w in grid.peaks if 0.5 <= f <= 1.5)

    bare = band_weight(0.0)
    assert bare == pytest.approx(0.25, abs=1e-6)
    dressed = band_weight(2.5)
    assert dressed < 0.05 * bare
    assert dressed == pytest.approx(1.638e-3, rel=0.05)


def _double_loop_structure_factor(eig, params, channel, temperature, omegas, eta, m_levels):
    """Reference: per-level Boltzmann weights, a double loop over (n, m), per-line sum."""
    freqs = eig.frequencies[:m_levels]
    if temperature == 0.0:
        weights = (np.abs(freqs - freqs[0]) <= 1e-12).astype(float)
        weights = weights / weights.sum()
    else:
        weights = np.exp(-(freqs - freqs[0]) / temperature)
        weights /= weights.sum()
    # the elements themselves are checked against the dense operators in test_lindblad
    elem2 = np.abs(coupling_elements(eig, params, channel)[:m_levels, :m_levels]) ** 2
    peaks = []
    for n in range(m_levels):
        if weights[n] == 0.0:
            continue
        for m in range(m_levels):
            strength = weights[n] * elem2[n, m]
            if strength > 0.0:
                peaks.append((freqs[m] - freqs[n], strength))
    return tuple(peaks), _per_line_sum([p[0] for p in peaks], [p[1] for p in peaks], omegas, eta)


def _per_line_sum(lines, weights, omegas, eta, totals=None):
    """Reference: one Lorentzian added at a time, in line order, none left out."""
    values = np.zeros_like(omegas) if totals is None else totals.copy()
    for w_line, weight in zip(lines, weights):
        values += weight * (eta / math.pi) / ((omegas - w_line) ** 2 + eta**2)
    return values


def _same_bits(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("factory, channel", [
    (cavity_structure_factor, "cavity"),
    (dipole_structure_factor, "dipole"),
])
@pytest.mark.parametrize("params, temperature, m_levels", [
    # omega_d = 0 at epsilon = 0: two decoupled displaced oscillators, so the
    # ground level is doubly degenerate and both members carry T = 0 weight
    (ModelParams(g=0.5, omega_d=0.0, epsilon=0.0, n_fock=30), 0.0, 10),
    (ModelParams(g=1.0, epsilon=0.3, n_fock=44), 0.2, 24),
])
def test_structure_factor_matches_double_loop(factory, channel, params, temperature, m_levels):
    eig = diagonalize(rabi_bands(params), m_levels)
    if temperature == 0.0:
        assert np.count_nonzero(thermal_weights(eig.frequencies[:m_levels], 0.0)) == 2
    omegas = np.linspace(-3.0, 3.0, 601)
    grid = factory(eig, params, temperature, omegas, 0.02)
    peaks, values = _double_loop_structure_factor(
        eig, params, channel, temperature, omegas, 0.02, m_levels
    )
    assert len(grid.peaks) == len(peaks) > 0
    assert grid.peaks == peaks
    assert np.array_equal(grid.values, values)


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(
        st.tuples(st.floats(-2.0, 2.0), st.floats(-320.0, 0.0).map(lambda e: 10.0**e)),
        min_size=1,
        max_size=4 * LINE_BLOCK,
    ),
    order=st.sampled_from(["drawn", "heavy first", "light first"]),
    start=st.floats(-3.0, 1.0),
    width=st.floats(0.01, 4.0),
    points=st.integers(1, 80),
    eta=st.floats(1e-4, 1.0),
)
# a one-point grid: a (k, 1) block's axis-0 sum is contiguous, and numpy sums
# a contiguous reduction pairwise, not row by row
@example(lines=[(0.0, 1.0)] * 8, order="drawn", start=0.0, width=1.0, points=1, eta=1e-4)
def test_lorentzian_sum_skips_only_exact_no_ops(lines, order, start, width, points, eta):
    # weights from 1e-320 to 1: the weak lines that the skip leaves out must
    # not change a bit of any total, whatever the line order, grid and eta
    if order != "drawn":
        lines = sorted(lines, key=lambda line: line[1], reverse=order == "heavy first")
    positions, weights = (np.array(column) for column in zip(*lines))
    omegas = np.linspace(start, start + width, points)
    assert _same_bits(
        _lorentzian_sum(positions, weights, omegas, eta),
        _per_line_sum(positions, weights, omegas, eta),
    )


@pytest.mark.parametrize("specials", [
    {95: math.nan},              # a NaN weight among lines too weak to count
    {95: math.inf},
    {0: math.inf, 95: math.nan},  # totals all inf, then a NaN weight
    {0: math.nan},               # NaN totals from the first block on
])
def test_lorentzian_sum_keeps_nan_and_inf_weights(specials):
    lines = np.linspace(-1.0, 1.0, 96)
    weights = 10.0 ** -np.arange(96.0)   # heavy first: the tail is droppable
    for index, weight in specials.items():
        weights[index] = weight
    omegas = np.linspace(-1.5, 1.5, 301)
    values = _lorentzian_sum(lines, weights, omegas, 0.05)
    assert _same_bits(values, _per_line_sum(lines, weights, omegas, 0.05))
    assert not np.isfinite(values).any()


@pytest.mark.parametrize("fraction", [0.4, 0.6])
def test_lorentzian_sum_at_half_an_ulp_of_the_smallest_total(fraction):
    # a line centred where the total is smallest, whose term there is the
    # given fraction of that total's ulp: above one half it changes the last
    # bit and must be kept, below it is an exact no-op
    omegas = np.linspace(-1.0, 1.0, 201)
    eta = 0.05
    lines = np.zeros(LINE_BLOCK + 1)
    weights = np.ones(LINE_BLOCK + 1)
    smallest = _per_line_sum(lines[:LINE_BLOCK], weights[:LINE_BLOCK], omegas, eta)
    lines[-1] = omegas[np.argmin(smallest)]
    weights[-1] = fraction * np.spacing(smallest.min()) * eta**2 / (eta / math.pi)
    values = _lorentzian_sum(lines, weights, omegas, eta)
    assert _same_bits(values, _per_line_sum(lines, weights, omegas, eta))
    assert _same_bits(values, smallest) == (fraction < 0.5)


def test_weak_transmission_point_skips_most_lines():
    # the edge point of experiments/transmission_weak.cfg: most of its lines
    # start on thermally suppressed levels.  Every line the skip rule names
    # (peak below half an ulp of the smallest total before its block) gets
    # a NaN frequency, which would reach every value were the line added.
    config = at_point(load_config(EXPERIMENTS / "transmission_weak.cfg"), {"epsilon": 0.5})
    omegas = config.response.grid()
    eta = config.model.omega_c / config.response.q_factor
    eig = certified_eigensystem(config.model, config.m_levels)
    grid = cavity_structure_factor(eig, config.model, config.temperature, omegas, eta)
    lines, weights = (np.array(column) for column in zip(*grid.peaks))
    peak = weights * (eta / math.pi) / eta**2
    totals = np.zeros_like(omegas)
    skipped = np.zeros(len(lines), dtype=bool)
    for start in range(0, len(lines), LINE_BLOCK):
        block = slice(start, start + LINE_BLOCK)
        skipped[block] = peak[block] < 0.5 * np.spacing(totals.min())
        totals = _per_line_sum(lines[block], weights[block], omegas, eta, totals)
    assert _same_bits(totals, grid.values)
    assert np.count_nonzero(skipped) > 0.6 * len(lines)
    poisoned = np.where(skipped, math.nan, lines)
    assert _same_bits(_lorentzian_sum(poisoned, weights, omegas, eta), grid.values)


def test_structure_factor_validation():
    params = ModelParams(g=0.0, n_fock=20)
    eig = diagonalize(rabi_bands(params), 8)
    omegas = np.linspace(0.0, 2.0, 50)
    with pytest.raises(ValueError, match="broadening"):
        cavity_structure_factor(eig, params, 0.0, omegas, eta=0.0)
    with pytest.raises(ValueError, match="ascending"):
        cavity_structure_factor(eig, params, 0.0, omegas[::-1], eta=0.01)


# ---------------------------------------------------------------------------
# impedance and transmission
# ---------------------------------------------------------------------------

def _synthetic_grid(omegas, values):
    return SpectrumGrid(
        omegas=omegas,
        values=values,
        broadening=0.01,
        temperature=0.0,
        kind="structure_factor",
    )


def test_system_impedance_is_minus_i_omega_s():
    params = ModelParams.auto(g=0.5)
    eig = _eig(params, levels=12)
    omegas = np.linspace(0.3, 1.7, 201)
    s_c = cavity_structure_factor(eig, params, 0.0, omegas, eta=0.02)
    z = system_impedance(s_c)
    assert z.kind == "impedance"
    assert np.allclose(z.values, -1j * omegas * s_c.values)
    z_rad = system_impedance(s_c)
    assert np.array_equal(z_rad.values, z.values)
    assert z_rad.kind == "impedance"


def test_transmission_forms_agree():
    omegas = np.linspace(0.2, 1.8, 101)
    rng = np.random.default_rng(2)
    z_vals = rng.uniform(0.01, 5.0, size=101) * np.exp(1j * rng.uniform(-1.5, 1.5, 101))
    z = SpectrumGrid(omegas=omegas, values=z_vals, broadening=0.01, temperature=0.0, kind="impedance")
    q = 100.0
    t = transmission(z, q)
    divider = z_vals / (z_vals + q)
    assert np.allclose(t.values, divider, rtol=1e-12)


def test_transmission_limits():
    omegas = np.linspace(0.5, 1.5, 5)
    big = SpectrumGrid(omegas=omegas, values=np.full(5, 1e12 + 0j), broadening=0.01,
                       temperature=0.0, kind="impedance")
    assert np.allclose(np.abs(transmission(big, 100.0).values), 1.0, atol=1e-9)
    zero = SpectrumGrid(omegas=omegas, values=np.zeros(5, dtype=complex), broadening=0.01,
                        temperature=0.0, kind="impedance")
    assert np.array_equal(transmission(zero, 100.0).values, np.zeros(5))
    with pytest.raises(ValueError, match="quality factor"):
        transmission(zero, 0.0)


def test_transmission_magnitude_monotone_in_structure_factor():
    # |T| = w S / sqrt(Q^2 + w^2 S^2) grows with S at fixed w
    omegas = np.array([1.0])
    mags = []
    for s in (0.1, 1.0, 10.0, 1000.0):
        z = system_impedance(_synthetic_grid(omegas, np.array([s])))
        mags.append(float(np.abs(transmission(z, 50.0).values[0])))
        expected = 1.0 * s / math.hypot(50.0, 1.0 * s)
        assert mags[-1] == pytest.approx(expected, rel=1e-12)
    assert mags == sorted(mags)


@settings(max_examples=25, deadline=None)
@given(g=st.floats(0.1, 3.0), epsilon=st.floats(0.0, 2.0, exclude_min=True))
def test_solver_is_even_in_epsilon(g, epsilon):
    # H(-epsilon) = P H(epsilon) P with P = (-1)^(a^dag a) sigma_z, diagonal in
    # the Fock basis, so the truncated operators at +-epsilon are similar and
    # both couplings enter the structure factors only as |<n|X|m>|^2
    levels = 24
    plus = ModelParams(g=g, epsilon=epsilon, n_fock=default_n_fock(g))
    minus = replace(plus, epsilon=-epsilon)
    eig_plus = diagonalize(rabi_bands(plus), levels)
    eig_minus = diagonalize(rabi_bands(minus), levels)
    # each solved level lies within RESIDUAL_TOL eps ||H|| of a level of its operator
    norm = np.linalg.norm(oracles.dense_from_bands(rabi_bands(plus)).entries, 2)
    bound = 2.0 * RESIDUAL_TOL * np.finfo(float).eps * norm
    assert np.max(np.abs(eig_minus.frequencies - eig_plus.frequencies)) <= bound
    omegas = np.linspace(0.05, 2.0, 391)
    for factory, eta in ((cavity_structure_factor, 0.01), (dipole_structure_factor, 0.05)):
        s_plus = factory(eig_plus, plus, 0.2, omegas, eta).values
        s_minus = factory(eig_minus, minus, 0.2, omegas, eta).values
        assert np.max(np.abs(s_minus - s_plus)) <= 1e-10 * np.max(np.abs(s_plus))
