"""Operator construction: ladder algebra, displacement kernel, Hamiltonians."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

import oracles
from oracles import build_rabi, fock_ladder, spin_operators
from usc_relax.eigen import certified_eigensystem, diagonalize
from usc_relax.operators import (
    ModelParams,
    build_polaron_rabi,
    default_n_fock,
    displacement_element,
    displacement_matrix,
    laguerre,
    polaron_constant,
    rabi_bands,
)


def test_fock_ladder_commutator_truncated():
    n = 12
    a, ad = fock_ladder(n)
    comm = a.entries @ ad.entries - ad.entries @ a.entries
    expected = np.eye(n)
    expected[-1, -1] = -(n - 1)  # truncation corner
    assert np.allclose(comm, expected, atol=1e-14)


@pytest.mark.parametrize("spin_n", [1, 2, 3, 4])
def test_spin_algebra(spin_n):
    sx, sy, sz = (op.entries for op in spin_operators(spin_n))
    j = spin_n / 2.0
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.allclose(casimir, j * (j + 1) * np.eye(spin_n + 1), atol=1e-13)
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-13)
    # m = +j sits in the first basis slot
    assert sz[0, 0] == pytest.approx(j)


def test_spin_half_is_half_pauli():
    sx, sy, sz = (op.entries for op in spin_operators(1))
    assert np.allclose(sx, [[0, 0.5], [0.5, 0]])
    assert np.allclose(sy, [[0, -0.5j], [0.5j, 0]])
    assert np.allclose(sz, [[0.5, 0], [0, -0.5]])


@given(
    n=st.integers(min_value=0, max_value=25),
    alpha=st.integers(min_value=0, max_value=8),
    x=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_laguerre_matches_scipy(n, alpha, x):
    mine = laguerre(n, alpha, x)
    ref = float(eval_genlaguerre(n, alpha, x))
    assert abs(mine - ref) <= 1e-8 * (1.0 + max(abs(mine), abs(ref)))


@pytest.mark.parametrize("x", [0.35, -1.2, 3.0])
def test_displacement_element_vs_expm(x):
    # 80-level oracle so the inspected 40x40 block is free of corner error
    oracle = oracles.displacement_via_expm(x, 80)
    for n in range(40):
        for m in range(40):
            assert displacement_element(n, m, x) == pytest.approx(
                oracle[n, m], abs=1e-12
            )


def test_displacement_matrix_agrees_with_elements():
    d = displacement_matrix(25, -0.8).entries
    for n in range(25):
        for m in range(25):
            assert d[n, m] == pytest.approx(displacement_element(n, m, -0.8), abs=1e-14)


def test_displacement_zero_is_identity():
    assert np.array_equal(displacement_matrix(10, 0.0).entries, np.eye(10))


@given(x=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_displacement_block_orthogonality(x):
    # truncated closed-form matrix is orthogonal away from the corner
    d = displacement_matrix(80, x).entries
    block = (d @ d.T)[:25, :25]
    assert np.allclose(block, np.eye(25), atol=1e-10)
    inv_block = (d @ displacement_matrix(80, -x).entries)[:25, :25]
    assert np.allclose(inv_block, np.eye(25), atol=1e-10)


@given(
    n=st.integers(min_value=0, max_value=20),
    m=st.integers(min_value=0, max_value=20),
    x=st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
)
@settings(max_examples=150, deadline=None)
def test_displacement_sign_gauge(n, m, x):
    # flipping the displacement sign flips each element by (-1)^(n-m)
    plus = displacement_element(n, m, x)
    minus = displacement_element(n, m, -x)
    assert minus == pytest.approx((-1.0) ** (n - m) * plus, abs=1e-15, rel=1e-12)


def _rabi_four_terms(params, number):
    """omega_c N + omega_d S_z + epsilon S_x + g S_x (a + a^dag) from Kronecker products."""
    a, ad = (op.entries for op in fock_ladder(params.n_fock))
    sx, _, sz = (op.entries.real for op in spin_operators(1))
    eye_f = np.eye(params.n_fock)
    return (
        params.omega_c * np.kron(np.eye(2), number)
        + params.omega_d * np.kron(sz, eye_f)
        + params.epsilon * np.kron(sx, eye_f)
        + params.g * np.kron(sx, a + ad)
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(g=2.3, epsilon=0.7),
        dict(g=-1.1, epsilon=-3.0, omega_c=1.3, omega_d=0.6),
        dict(g=0.0, epsilon=0.0, omega_d=0.0),
    ],
)
def test_rabi_bands_expand_to_the_four_term_sum(kwargs):
    params = ModelParams(n_fock=89, **kwargs)
    band = rabi_bands(params)
    assert band.dim == params.dim
    assert band.bands.shape == (3, 2 * params.n_fock)
    # the band writes a^dag a as the integer n, where the product a^dag a
    # gives fl(sqrt(n) * sqrt(n)), up to 1 ulp off
    a, ad = (op.entries for op in fock_ladder(params.n_fock))
    n = np.arange(params.n_fock, dtype=float)
    assert np.all(np.abs(np.diag(ad @ a) - n) <= np.spacing(n))
    ref = _rabi_four_terms(params, np.diag(n))
    # the band's dense expansion (oracle) against the Kronecker sum
    assert np.array_equal(build_rabi(params).entries, ref)


@pytest.mark.parametrize("n_fock", [2, 8, 89])
def test_rabi_bands_past_the_last_row_hold_the_coupling_out_of_the_block(n_fock):
    params = ModelParams(g=2.3, epsilon=0.7, n_fock=n_fock)
    band = rabi_bands(params)
    # both parity chains' photon N - 1 couple to the dropped photon N; epsilon
    # links the chains at a fixed photon, so nothing leaves through offset 1
    assert np.array_equal(band.bands[2, -2:], np.full(2, 0.5 * params.g * np.sqrt(n_fock)))
    assert band.bands[1, -1] == 0.0


def test_rabi_spectrum_even_in_g_at_zero_asymmetry():
    base = ModelParams(g=1.3, epsilon=0.0, n_fock=50)
    flipped = ModelParams(g=-1.3, epsilon=0.0, n_fock=50)
    wa = diagonalize(rabi_bands(base)).frequencies
    wb = diagonalize(rabi_bands(flipped)).frequencies
    assert np.allclose(wa, wb, atol=1e-12)


def test_polaron_frame_matches_lab_frame():
    # the polaron builder keeps the lab energy zero, so spectra coincide;
    # a comparison of the two dense builders
    params = ModelParams(g=2.5, epsilon=0.7, n_fock=90)
    lab = np.linalg.eigvalsh(build_rabi(params).entries)[:12]
    pol = np.linalg.eigvalsh(build_polaron_rabi(params).entries)[:12]
    assert np.max(np.abs(pol - lab)) < 1e-10


def _polaron_kron(params):
    """The polaron Hamiltonian from Kronecker products of the spin and Fock operators."""
    sx, sy, sz = (op.entries for op in spin_operators(1))
    a, ad = (op.entries for op in fock_ladder(params.n_fock))
    d = displacement_matrix(params.n_fock, params.g / params.omega_c).entries
    eye_f = np.eye(params.n_fock)
    return (
        params.omega_c * np.kron(np.eye(2), ad @ a)
        + params.epsilon * np.kron(sx, eye_f)
        + 0.5 * params.omega_d * (np.kron(sz + 1j * sy, d) + np.kron(sz - 1j * sy, d.conj().T))
        - polaron_constant(params) * np.eye(2 * params.n_fock)
    )


@pytest.mark.parametrize("kwargs", [
    dict(g=3.0, epsilon=1.0, n_fock=76),
    dict(g=-1.1, epsilon=-0.4, omega_c=1.3, omega_d=0.6, n_fock=40),
])
def test_polaron_blocks_are_the_kronecker_form(kwargs):
    params = ModelParams(**kwargs)
    h = build_polaron_rabi(params).entries
    assert h.dtype == np.float64
    assert np.max(np.abs(h - _polaron_kron(params))) <= 1e-13


def test_polaron_constant_value():
    assert polaron_constant(ModelParams(g=3.0, omega_c=1.5, n_fock=4)) == pytest.approx(
        9.0 / 6.0
    )


def test_edm_reduces_to_rabi_plus_shift_for_one_well():
    params = ModelParams(g=1.7, epsilon=0.4, n_fock=40, spin_n=1)
    # a comparison of two dense builders
    w_edm = np.linalg.eigvalsh(oracles.build_edm(params).entries)
    w_rabi = np.linalg.eigvalsh(build_rabi(params).entries)
    shift = params.g**2 / (4.0 * params.omega_c)
    assert np.allclose(w_edm, w_rabi + shift, atol=1e-12)


def test_edm_hp_decoupled_limit():
    # g = 0 turns the coupling into a linear drive on the excitation mode,
    # i.e. a displaced oscillator with energy offset -omega_d^2 N / (4 eps)
    params = ModelParams(g=0.0, epsilon=2.0, n_fock=12, spin_n=1)
    h = oracles.build_edm_hp(params, n_boson=30)
    assert h.hermiticity_defect() == 0.0
    w = np.linalg.eigvalsh(h.entries)[:6]
    offset = -1.0 / (4.0 * 2.0)
    expected = sorted(
        wc_n + 2.0 * m + offset for wc_n in range(4) for m in range(4)
    )[:6]
    assert np.allclose(w, expected, atol=1e-9)


def test_builders_emit_exactly_hermitian_matrices():
    params = ModelParams(g=2.0, epsilon=0.3, n_fock=30)
    # the dense builders themselves are the subject
    for build in (build_rabi, build_polaron_rabi, oracles.build_edm):
        assert build(params).hermiticity_defect() == 0.0


def test_default_n_fock_grows_quadratically():
    assert default_n_fock(3.0) == 76
    assert default_n_fock(0.0) == 40
    gs = np.linspace(0.0, 4.0, 17)
    sizes = [default_n_fock(g) for g in gs]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))


def test_model_params_validation():
    with pytest.raises(ValueError, match="omega_c"):
        ModelParams(omega_c=0.0)
    with pytest.raises(ValueError, match="n_fock"):
        ModelParams(n_fock=1)
    with pytest.raises(ValueError, match="spin_n"):
        ModelParams(spin_n=0)


def test_dense_cap_bounds_the_dense_builder_not_the_model():
    p = ModelParams(g=2.0, epsilon=1.0, n_fock=3000)
    with pytest.raises(ValueError, match="requested dimension 6000 exceeds the dense cap 4096"):
        build_polaron_rabi(p)
    # the band solve forms no dense matrix, so the same cutoff is fine there
    big = certified_eigensystem(p, 24)
    small = certified_eigensystem(replace(p, n_fock=89), 24)
    np.testing.assert_array_equal(big.frequencies, small.frequencies)


def test_auto_constructor_sets_truncation_from_coupling():
    p = ModelParams.auto(g=3.0, epsilon=1.0)
    assert p.n_fock == default_n_fock(3.0)
    assert p.dim == 2 * p.n_fock
