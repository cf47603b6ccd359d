"""Generalized-RWA closed forms: blocks, dressed levels, transition elements.

Block coefficients are recomputed here with scipy's Laguerre evaluator and
raw math so the closed forms are covered by a second, independent route.
The dressed ladder's elements are checked against the printed table in
tests/oracles.py, its vectors against the polaron Hamiltonian's blocks.
Level comparisons against exact diagonalization assert the measured accuracy
envelope of the block approximation, not wishful tolerances.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

import oracles
from usc_relax import grwa
from usc_relax.lindblad import build_liouvillian, cavity_bath, dipole_bath
from oracles import fock_ladder, spin_operators
from usc_relax.operators import (
    ModelParams,
    build_polaron_rabi,
    displacement_element,
    polaron_constant,
)


def _block_reference(params: ModelParams, n: int) -> tuple[float, float, float]:
    """Second route to (A_n, B_n, C_n) via scipy Laguerre polynomials."""
    x = params.g / params.omega_c
    xs = x * x
    tun = 0.5 * params.omega_d * math.exp(-0.5 * xs)
    a = params.omega_c * n - tun * float(eval_genlaguerre(n, 0, xs))
    b = params.omega_c * (n - 1) + tun * float(eval_genlaguerre(n - 1, 0, xs))
    c = x * tun * math.sqrt(math.factorial(n - 1) / math.factorial(n)) * float(
        eval_genlaguerre(n - 1, 1, xs)
    )
    return a, b, c


@pytest.mark.parametrize("g", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
def test_symmetric_block_coefficients(g, n):
    params = ModelParams(g=g, n_fock=4)
    block = grwa.symmetric_block(params, n)
    a, b, c = _block_reference(params, n)
    assert block.mean == pytest.approx(0.5 * (a + b), rel=1e-12, abs=1e-14)
    assert block.detuning == pytest.approx(a - b, rel=1e-12, abs=1e-14)
    assert block.coupling == pytest.approx(2.0 * c, rel=1e-12, abs=1e-14)


@given(
    a=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    b=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    c=st.floats(min_value=1e-6, max_value=5.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_doublet_is_exact_2x2_eigensystem(a, b, c):
    pair = grwa.doublet(0.5 * (a + b), a - b, 2.0 * c)
    lo, hi = oracles.two_by_two_eigvals(a, b, c)
    scale = 1.0 + max(abs(a), abs(b), abs(c))
    assert abs(pair.omega_minus - lo) < 1e-12 * scale
    assert abs(pair.omega_plus - hi) < 1e-12 * scale
    assert pair.cos_half**2 + pair.sin_half**2 == pytest.approx(1.0, abs=1e-12)
    # (cos, sin) is the upper eigenvector when the off-diagonal is positive
    h = np.array([[a, c], [c, b]])
    v = np.array([pair.cos_half, pair.sin_half])
    assert np.linalg.norm(h @ v - pair.omega_plus * v) < 1e-9 * scale


@pytest.mark.parametrize("kind", ["vacuum", "symmetric", "k_resonance"])
def test_every_block_keeps_the_upper_eigenvector_convention(kind):
    # each constructor's doublet: levels and upper eigenvector (cos_half,
    # sign(coupling) sin_half) of its own block, by numpy; couplings of both
    # signs (C_2 < 0 at g = 3, Omega_(1,2) < 0 at g = 2)
    if kind == "vacuum":
        params = ModelParams(g=1.0, epsilon=0.3, n_fock=4)
        block = grwa.doublet(0.0, params.epsilon, grwa.tunneling_suppression(params))
        assert block.omega_minus == grwa.ground_state_energy(params)
    elif kind == "symmetric":
        block = grwa.symmetric_block(ModelParams(g=3.0, n_fock=4), 2)
    else:
        block = grwa.k_resonance_block(ModelParams(g=2.0, epsilon=0.7, n_fock=4), 1, 2)
    d, o = block.detuning, block.coupling
    w, vecs = np.linalg.eigh(block.mean * np.eye(2) + 0.5 * np.array([[d, o], [o, -d]]))
    upper = vecs[:, 1] * np.sign(vecs[0, 1])
    assert [block.omega_minus, block.omega_plus] == pytest.approx(w, rel=1e-14, abs=1e-15)
    assert [block.cos_half, math.copysign(block.sin_half, o)] == pytest.approx(upper, abs=1e-14)


def test_vacuum_rabi_splitting_small_g():
    # weak coupling reduces the n-th block splitting to g sqrt(n)
    params = ModelParams(g=0.01, n_fock=4)
    for n in (1, 2, 3):
        pair = grwa.symmetric_block(params, n)
        assert pair.omega_plus - pair.omega_minus == pytest.approx(
            params.g * math.sqrt(n), rel=2e-4
        )


def test_ground_state_energy_limits():
    assert grwa.ground_state_energy(ModelParams(g=0.0, epsilon=0.0, n_fock=4)) == -0.5
    p = ModelParams(g=0.0, epsilon=0.8, n_fock=4)
    assert grwa.ground_state_energy(p) == pytest.approx(-0.5 * math.hypot(0.8, 1.0))
    # deep USC: tunneling is exponentially gone, the asymmetry term survives
    p = ModelParams(g=4.0, epsilon=0.8, n_fock=4)
    assert grwa.ground_state_energy(p) == pytest.approx(-0.4, abs=1e-4)


def test_tunneling_suppression_scale():
    p = ModelParams(g=3.0, n_fock=4)
    assert grwa.tunneling_suppression(p) == pytest.approx(math.exp(-4.5))


def test_symmetric_levels_track_exact_spectrum(eig_cache):
    # measured accuracy envelope of the block approximation at g = 3
    params = ModelParams.auto(g=3.0)
    eig = eig_cache(params, levels=8)
    exact = eig.frequencies[:6] + polaron_constant(params)
    approx = np.array(grwa.symmetric_levels(params, 6))
    assert np.max(np.abs(exact - approx)) < 0.05


def test_asymmetric_levels_track_exact_spectrum(eig_cache):
    for k in (1, 2):
        params = ModelParams.auto(g=3.0, epsilon=float(k))
        eig = eig_cache(params, levels=8)
        exact = eig.frequencies[:6] + polaron_constant(params)
        approx = np.array(grwa.asymmetric_levels(params, k, 6))
        assert np.max(np.abs(exact - approx)) < 0.06


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("g", [1.0, 2.0, 3.0])
def test_rabi_frequency_magnitude_vs_expm(k, g):
    params = ModelParams(g=g, n_fock=4)
    oracle = oracles.displacement_via_expm(g, 60)
    for n in range(k, k + 4):
        mine = abs(grwa.rabi_frequency(k, n, params))
        ref = params.omega_d * abs(oracle[n, n - k])
        assert mine == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_diagonal_rabi_frequency_closed_form(k):
    # Omega_(k,k) = omega_d e^{-x^2/2} x^k / sqrt(k!)
    for g in (0.5, 1.5, 3.0):
        params = ModelParams(g=g, n_fock=4)
        x = g / params.omega_c
        expected = params.omega_d * math.exp(-0.5 * x * x) * x**k / math.sqrt(
            math.factorial(k)
        )
        assert abs(grwa.rabi_frequency(k, k, params)) == pytest.approx(expected, rel=1e-12)


def test_k_resonance_block_at_exact_resonance():
    params = ModelParams(g=3.0, epsilon=2.0, n_fock=4)
    block = grwa.k_resonance_block(params, 2, 3)
    assert block.detuning == 0.0
    assert block.cos_half == pytest.approx(math.sqrt(0.5))
    assert block.sin_half == pytest.approx(math.sqrt(0.5))
    assert block.omega_plus - block.omega_minus == pytest.approx(
        abs(grwa.rabi_frequency(2, 3, params))
    )
    assert block.mean == pytest.approx(params.omega_c * (3 - 1.0))
    assert block.cos_half * block.sin_half == pytest.approx(0.5)   # <+|s_x|->


def test_k_resonance_block_near_resonance_follows_the_block():
    # detuned by -5e-10 with Omega_(1,1) = 1e-13: far from resonance on the
    # scale of the coupling, so the block is all but unmixed
    params = ModelParams(g=8.0, epsilon=1.0 + 5e-10, n_fock=4)
    block = grwa.k_resonance_block(params, 1, 1)
    assert block.detuning == pytest.approx(-5.0e-10, rel=1e-6)
    assert abs(block.coupling) == pytest.approx(1.0e-13, rel=2e-2)
    d, o = block.detuning, block.coupling
    _, vecs = np.linalg.eigh(np.array([[d / 2, o / 2], [o / 2, -d / 2]]))
    upper = np.abs(vecs[:, 1])
    assert block.cos_half == pytest.approx(upper[0], rel=1e-9)
    assert block.sin_half == pytest.approx(upper[1], rel=1e-9)
    assert block.cos_half == pytest.approx(1.0e-4, rel=2e-2)


def test_k_resonance_block_detuning_sign():
    params = ModelParams(g=2.0, epsilon=0.7, n_fock=4)
    block = grwa.k_resonance_block(params, 1, 2)
    assert block.detuning == pytest.approx(0.3)
    assert block.omega_plus > block.omega_minus


def test_first_block_is_nearly_photon_like_deep_usc():
    params = ModelParams(g=3.0, n_fock=4)
    pair = grwa.symmetric_block(params, 1)
    assert pair.sin_half == pytest.approx(0.01603, abs=2e-5)
    assert pair.sin_half < 0.05


def test_matter_weight_vanishes_for_all_low_blocks_at_large_g():
    params = ModelParams(g=8.0, n_fock=4)
    sins = [
        grwa.symmetric_block(params, n).sin_half for n in range(1, 7)
    ]
    assert max(sins) < 1e-3


@pytest.mark.xfail(
    strict=True,
    reason="matter weight is not monotone across blocks at g = 3; Laguerre"
    " nodes push the n = 3 and n = 5 blocks back up",
)
def test_matter_weight_monotone_across_blocks():
    params = ModelParams(g=3.0, n_fock=4)
    sins = [
        grwa.symmetric_block(params, n).sin_half for n in range(1, 7)
    ]
    assert all(b <= a for a, b in zip(sins, sins[1:]))


def _dressed_rank_map(params: ModelParams) -> dict[str, int]:
    """Label -> exact-level rank, matching sorted closed-form energies.

    At g = 3 the minus levels of block n sit just below the plus levels of
    block n-1, so the ladder interleaves; sorting the labelled closed-form
    energies reproduces the exact ordering.
    """
    labeled = [("ground", grwa.ground_state_energy(params))]
    for m in range(1, 6):
        pair = grwa.symmetric_block(params, m)
        labeled.append((f"minus_{m}", pair.omega_minus))
        labeled.append((f"plus_{m}", pair.omega_plus))
    labeled.sort(key=lambda t: t[1])
    return {label: rank for rank, (label, _) in enumerate(labeled)}


def _exact_elements(eig_cache, n: int):
    """|quad| and |dipole| elements between blocks n and n-1 from full ED."""
    params = ModelParams.auto(g=3.0)
    eig = eig_cache(params, levels=12)
    a, ad = fock_ladder(params.n_fock)
    x_op = np.kron(np.eye(2), ad.entries - a.entries)
    sx_op = np.kron(spin_operators(1)[0].entries, np.eye(params.n_fock))
    idx = _dressed_rank_map(params)

    def elem(op, frm, to):
        v = eig.vectors
        return abs(v[:, idx[to]].conj() @ op @ v[:, idx[frm]])

    if n == 1:
        pairs = {"plus_ground": ("plus_1", "ground"), "minus_ground": ("minus_1", "ground")}
    else:
        pairs = {
            "plus_plus": (f"plus_{n}", f"plus_{n - 1}"),
            "minus_minus": (f"minus_{n}", f"minus_{n - 1}"),
            "plus_minus": (f"plus_{n}", f"minus_{n - 1}"),
            "minus_plus": (f"minus_{n}", f"plus_{n - 1}"),
        }
    quad = {key: elem(x_op, frm, to) for key, (frm, to) in pairs.items()}
    dip = {key: elem(sx_op, frm, to) for key, (frm, to) in pairs.items()}
    return quad, dip


@pytest.mark.parametrize(
    ("n", "quad_env", "dip_env"),
    [(1, 0.05, 0.01), (2, 0.20, 0.06), (3, 0.65, 0.07)],
)
def test_dressed_elements_track_exact_magnitudes(n, quad_env, dip_env, eig_cache):
    # measured block-approximation error at g = 3 grows with n; the n = 1
    # worst case is 0.038 on the quadrature side and 0.005 on the dipole side
    params = ModelParams.auto(g=3.0)
    table = oracles.dressed_matrix_elements(params, n)
    quad_exact, dip_exact = _exact_elements(eig_cache, n)
    for key, val in table.quad.items():
        assert abs(abs(val) - quad_exact[key]) < quad_env, (key, val, quad_exact[key])
    for key, val in table.dipole.items():
        assert abs(abs(val) - dip_exact[key]) < dip_env, (key, val, dip_exact[key])


def test_dressed_elements_ground_row_structure():
    params = ModelParams(g=3.0, n_fock=4)
    table = oracles.dressed_matrix_elements(params, 1)
    pair = grwa.symmetric_block(params, 1)
    assert table.quad["plus_ground"] == pytest.approx(pair.cos_half)
    assert table.quad["minus_ground"] == pytest.approx(-pair.sin_half)
    # s_x rows carry the spin-1/2 normalization
    assert table.dipole["minus_ground"] == pytest.approx(0.5 * pair.cos_half)
    assert table.dipole["plus_ground"] == pytest.approx(0.5 * pair.sin_half)


def _block_ids(params: ModelParams) -> np.ndarray:
    """Block of each library row: |down, n> is in block n, |up, n> in block n + 1."""
    n = np.arange(params.n_fock)
    return np.concatenate([n + 1, n])


@pytest.mark.parametrize("g", [1.0, 2.0, 3.0, 4.0])
def test_symmetric_eigensystem_columns_are_block_eigenvectors(g):
    params = ModelParams.auto(g=g)
    ladder = grwa.symmetric_eigensystem(params, 8)
    h = build_polaron_rabi(params).entries + polaron_constant(params) * np.eye(params.dim)
    ids = _block_ids(params)
    blocks = np.where(ids[:, None] == ids[None, :], h, 0.0)
    residual = blocks @ ladder.vectors - ladder.vectors * ladder.frequencies
    assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-13
    assert np.allclose(ladder.vectors.T @ ladder.vectors, np.eye(8), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("levels", [1, 6, 8, 24])
@pytest.mark.parametrize("g", [0.0, 1.0, 3.0, 6.0])
def test_symmetric_eigensystem_frequencies_are_symmetric_levels(g, levels):
    params = ModelParams.auto(g=g)
    ladder = grwa.symmetric_eigensystem(params, levels)
    assert ladder.frequencies.tolist() == grwa.symmetric_levels(params, levels)
    assert ladder.vectors.shape == (params.dim, levels)


def test_symmetric_eigensystem_needs_the_fock_rows():
    with pytest.raises(ValueError, match="holds 5 < 6 levels"):
        grwa.symmetric_eigensystem(ModelParams(g=1.0, n_fock=3), 6)


@pytest.mark.parametrize("omega_c", [1.0, 1.7])
@pytest.mark.parametrize("omega_d", [1.0, 0.37, 0.0])
@pytest.mark.parametrize("g", [-3.0, -1.2, 0.0, 0.1, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 8.0])
def test_dressed_elements_match_printed_table(g, omega_d, omega_c):
    params = ModelParams(g=g, omega_d=omega_d, omega_c=omega_c, n_fock=4)
    for n in range(1, 9):
        table = oracles.dressed_matrix_elements(params, n)
        quad, dipole = oracles.printed_dressed_table(params, n)
        assert list(table.quad) == list(quad) and list(table.dipole) == list(dipole)
        for key in quad:
            assert abs(table.quad[key] - quad[key]) <= 1e-15, (n, key)
            assert abs(table.dipole[key] - dipole[key]) <= 1e-15, (n, key)


def test_dressed_ladder_rates():
    gamma = 0.01
    params = ModelParams.auto(g=3.0)
    ladder = grwa.symmetric_eigensystem(params, 8)
    idx = _dressed_rank_map(params)
    cavity = build_liouvillian(ladder, params, [cavity_bath(gamma)], 0.0).rates
    dipole = build_liouvillian(ladder, params, [dipole_bath(4 * gamma)], 0.0).rates

    # like-branch cavity decay (+,2) -> (+,1) and (-,2) -> (-,1): the minus
    # branch lands on gamma, the plus branch keeps its photon factor
    pp = cavity[idx["plus_1"], idx["plus_2"]]
    mm = cavity[idx["minus_1"], idx["minus_2"]]
    assert mm == pytest.approx(0.9314 * gamma, rel=2e-3)
    assert abs(mm - gamma) < 0.10 * gamma
    assert pp == pytest.approx(1.6473 * gamma, rel=2e-3)

    # cross-branch dipole channel between (-,2) and (+,1) vanishes deep in
    # the USC; at g = 3 (-,2) lies below (+,1), so at T = 0 it runs upward
    assert dipole[idx["plus_1"], idx["minus_2"]] == 0.0
    assert dipole[idx["minus_2"], idx["plus_1"]] < 0.05 * gamma

    # ohmic cavity law: rate = gamma * (|dw|/omega_c) * |element|^2
    element = oracles.dressed_matrix_elements(params, 2).quad["plus_plus"]
    dw = ladder.frequencies[idx["plus_2"]] - ladder.frequencies[idx["plus_1"]]
    assert pp == pytest.approx(gamma * abs(dw) * element**2, rel=1e-12)


def test_dressed_ladder_rate_tracks_exact_rate(eig_cache):
    # same transition computed from exact eigenvectors: agreement within 11%
    gamma = 0.01
    params = ModelParams.auto(g=3.0)
    idx = _dressed_rank_map(params)
    ladder = grwa.symmetric_eigensystem(params, 8)
    rates = build_liouvillian(ladder, params, [cavity_bath(gamma)], 0.0).rates
    pp = rates[idx["plus_1"], idx["plus_2"]]
    quad_exact, _ = _exact_elements(eig_cache, 2)
    eig = eig_cache(params, levels=12)
    dw = eig.frequencies[idx["plus_2"]] - eig.frequencies[idx["plus_1"]]
    exact_rate = gamma * (abs(dw) / params.omega_c) * quad_exact["plus_plus"] ** 2
    assert exact_rate == pytest.approx(1.8292 * gamma, rel=2e-3)
    assert abs(pp - exact_rate) / exact_rate < 0.11


def test_input_validation():
    params = ModelParams(g=1.0, epsilon=0.3, n_fock=4)
    with pytest.raises(ValueError, match="epsilon = 0"):
        grwa.symmetric_block(params, 1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        grwa.symmetric_block(ModelParams(g=1.0, n_fock=4), 0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        grwa.rabi_frequency(0, 1, params)
    with pytest.raises(ValueError, match="n must be >= k"):
        grwa.rabi_frequency(2, 1, params)
    with pytest.raises(ValueError, match="spin_n = 1"):
        grwa.ground_state_energy(ModelParams(n_fock=4, spin_n=2))
