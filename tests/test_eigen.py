"""Eigensolver wrapper: gauge fixing, hermiticity guard, truncation certification."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError

from oracles import (
    ConvergenceReport,
    band_eigvals_via_dsbevx,
    build_rabi,
    convergence_check,
    dense_from_bands,
    drift_ladder,
)
import usc_relax
from usc_relax import eigen
from usc_relax.eigen import EigenSystem, _fix_phases, certified_eigensystem, diagonalize
from usc_relax.lindblad import Liouvillian, transition_lines
from usc_relax.operators import (
    ModelParams,
    OperatorMatrix,
    build_polaron_rabi,
    default_n_fock,
    rabi_bands,
)


def test_frequencies_match_numpy():
    # the dense branch of diagonalize, on the oracle's dense matrix
    op = build_rabi(ModelParams(g=1.2, epsilon=0.4, n_fock=30))
    eig = diagonalize(op)
    ref = np.linalg.eigvalsh(op.entries)
    assert np.allclose(eig.frequencies, ref, atol=1e-13)
    assert eig.vectors.shape == (60, 60)


@pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("g", [0.5, 1.5, 3.0, 5.0])
def test_band_solve_matches_dense_eigh(g, epsilon):
    # g = 0 is left out: its exactly degenerate levels fix no basis for either solver
    params = ModelParams(g=g, epsilon=epsilon, n_fock=default_n_fock(g))
    levels = 24
    band = diagonalize(rabi_bands(params), levels)
    dense = diagonalize(build_rabi(params), levels)   # the band solver against the dense matrix
    assert band.vectors.shape == (params.dim, levels)
    w = dense.frequencies
    assert np.all(np.abs(band.frequencies - w) <= 1e-12 * np.maximum(1.0, np.abs(w)))
    if np.min(np.diff(w)) < 1e-5:
        return   # near-degenerate pairs: each solver may rotate inside the pair
    for channel in ("cavity", "dipole"):
        elem_band = transition_lines(band, params, channel)[1]
        elem_dense = transition_lines(dense, params, channel)[1]
        assert np.max(np.abs(elem_band - elem_dense)) <= 1e-9


def _assert_band_solve_matches_oracle(params, levels, op=None):
    """Eigenvalues against eig_banded, residuals and orthonormality against ||H||.

    op defaults to rabi_bands(params); an edited copy of it may stand in.
    """
    op = rabi_bands(params) if op is None else op
    eig = diagonalize(op, levels)
    w = band_eigvals_via_dsbevx(op, levels)
    assert np.all(np.abs(eig.frequencies - w) <= 1e-12 * np.maximum(1.0, np.abs(w)))
    h = dense_from_bands(op).entries   # residuals in the dense matrix, not the solver's band
    eps_norm = np.finfo(float).eps * np.linalg.norm(h, 2)
    residual = np.linalg.norm(h @ eig.vectors - eig.vectors * eig.frequencies, axis=0)
    assert np.max(residual) <= 32.0 * eps_norm
    gram = eig.vectors.T @ eig.vectors
    assert np.max(np.abs(gram - np.eye(levels))) <= 64.0 * np.finfo(float).eps
    return eig


@settings(max_examples=30, deadline=None)
@given(
    g=st.floats(0.0, 6.0),
    epsilon=st.floats(-3.0, 3.0),
    omega_d=st.sampled_from([0.0, 0.37, 1.0]),
    extra_fock=st.integers(0, 60),
    levels=st.integers(2, 40),
)
def test_band_solve_matches_the_oracle_over_the_model(g, epsilon, omega_d, extra_fock, levels):
    params = ModelParams(
        g=g, epsilon=epsilon, omega_d=omega_d, n_fock=default_n_fock(g) + extra_fock
    )
    _assert_band_solve_matches_oracle(params, levels)


# a gap_map point: its 24 levels occupy about half of the 89 photons
GAP_MAP_POINT = ModelParams(g=2.0, epsilon=1.0, n_fock=89)


def _swept_rows(monkeypatch):
    """The row count of every dsbev sweep the solves below make, in order."""
    rows = []
    sweep = eigen.dsbev

    def spy(bands, **kwargs):
        rows.append(bands.shape[1])
        return sweep(bands, **kwargs)

    monkeypatch.setattr(eigen, "dsbev", spy)
    return rows


def test_band_solve_sweeps_only_the_rows_its_levels_occupy(monkeypatch):
    rows = _swept_rows(monkeypatch)
    _assert_band_solve_matches_oracle(GAP_MAP_POINT, 24)
    assert len(rows) == 1 and rows[0] < GAP_MAP_POINT.dim


def test_band_solve_keeps_a_level_planted_deep_in_the_tail(monkeypatch):
    op = rabi_bands(GAP_MAP_POINT)
    op.bands[0, 150] = -10.0   # photon 75, far below the ground level near -1.6
    assert eigen._first_split(op.bands, 24)[0] < 150
    rows = _swept_rows(monkeypatch)
    eig = _assert_band_solve_matches_oracle(GAP_MAP_POINT, 24, op)
    assert eig.frequencies[0] < -10.0
    assert min(rows) > 150


@pytest.mark.parametrize("start", ["tail below sigma", "sigma below the levels", "split short"])
def test_band_solve_grows_a_first_split_that_fails_its_checks(monkeypatch, start):
    rows, sigma = eigen._first_split(rabi_bands(GAP_MAP_POINT).bands, 24)
    first = {
        "tail below sigma": (16, sigma),       # photons 8 and up hold levels below sigma
        "sigma below the levels": (rows, -1.0),
        "split short": (rows - 10, sigma),     # vectors not yet decayed at the boundary
    }[start]
    monkeypatch.setattr(eigen, "_first_split", lambda bands, count: first)
    infos = []
    factor = eigen.dpbtrf

    def spy(*args, **kwargs):
        out = factor(*args, **kwargs)
        infos.append(out[1])
        return out

    monkeypatch.setattr(eigen, "dpbtrf", spy)
    swept = _swept_rows(monkeypatch)
    _assert_band_solve_matches_oracle(GAP_MAP_POINT, 24)
    if start == "tail below sigma":
        assert infos[0] > 0 and min(swept) > 16
    elif start == "sigma below the levels":
        assert infos[:2] == [0, 0] and swept[:2] == [rows, rows]
    else:
        assert infos[0] == 0 and swept[0] == rows - 10 < swept[1]


def test_band_solve_survives_exact_degeneracy(monkeypatch):
    # g = omega_d = epsilon = 0 leaves H = omega_c n, each level doubly
    # degenerate and exact, so every shifted block has an exact zero pivot
    infos = []
    factor = eigen.dgbtrf

    def spy(*args, **kwargs):
        out = factor(*args, **kwargs)
        infos.append(out[2])
        return out

    monkeypatch.setattr(eigen, "dgbtrf", spy)
    params = ModelParams(g=0.0, epsilon=0.0, omega_d=0.0, n_fock=30)
    eig = _assert_band_solve_matches_oracle(params, 24)
    assert infos and infos[0] > 0
    assert np.array_equal(eig.frequencies, np.repeat(np.arange(12.0), 2))


def test_band_solve_survives_couplings_below_the_rounding():
    # g and epsilon far below eps ||H|| leave each level a near-degenerate pair
    # with couplings to the neighbouring photons as small as its own splitting
    params = ModelParams(g=7.03435602632105e-35, epsilon=7.03435602632105e-35, omega_d=0.0)
    _assert_band_solve_matches_oracle(params, 24)


def _rayleigh_ritz_calls(monkeypatch):
    calls = []
    rotate = eigen._rayleigh_ritz

    def spy(vecs, product):
        calls.append(vecs.shape[1])
        return rotate(vecs, product)

    monkeypatch.setattr(eigen, "_rayleigh_ritz", spy)
    return calls


@pytest.mark.parametrize("g", [3e-11, 1e-10, 3e-10])
def test_band_solve_rotates_pairs_split_near_the_rounding(monkeypatch, g):
    # pairs split by about ten eps ||H||: the QR leaves them rotated, their
    # residuals stall above the bound, and a Rayleigh-Ritz rotation mends them
    calls = _rayleigh_ritz_calls(monkeypatch)
    params = ModelParams.auto(g=g, epsilon=1e-13, omega_d=0.0)
    _assert_band_solve_matches_oracle(params, 40)
    assert calls
    certified_eigensystem(params, 40)


def test_converging_band_solves_skip_the_rayleigh_ritz_rotation(monkeypatch):
    calls = _rayleigh_ritz_calls(monkeypatch)
    for g, epsilon in [(0.0, 0.0), (0.5, 0.3), (2.0, 1.0), (5.0, 0.0)]:
        certified_eigensystem(ModelParams.auto(g=g, epsilon=epsilon), 24)
    certified_eigensystem(GAP_MAP_POINT, 24)
    assert calls == []


@pytest.mark.parametrize(("g", "spacing"), [(5.0, 3.9e-6), (6.0, 1.6e-8)])
def test_band_solve_separates_deep_usc_doublets(g, spacing):
    params = ModelParams(g=g, epsilon=0.0, n_fock=default_n_fock(g))
    eig = _assert_band_solve_matches_oracle(params, 24)
    assert np.min(np.diff(eig.frequencies)) == pytest.approx(spacing, rel=0.05)


def test_band_solve_of_every_level_equals_dense_eigh():
    params = ModelParams(g=1.2, epsilon=0.4, n_fock=12)
    band = diagonalize(rabi_bands(params))
    w, v = np.linalg.eigh(build_rabi(params).entries)   # the band solver against the dense matrix
    assert band.vectors.shape == (params.dim, params.dim)
    assert np.all(np.abs(band.frequencies - w) <= 1e-12 * np.maximum(1.0, np.abs(w)))
    assert np.max(np.abs(band.vectors - _fix_phases(v))) <= 1e-12


def test_band_solve_leaves_the_bands_alone():
    op = rabi_bands(ModelParams(g=2.0, epsilon=1.0, n_fock=60))
    before = op.bands.copy()
    # LAPACK works in place on Fortran-ordered input unless told not to
    for bands in (op.bands, np.asfortranarray(op.bands)):
        diagonalize(replace(op, bands=bands), 24)
        assert np.array_equal(bands, before)


def test_band_solve_rejects_non_finite_bands():
    op = rabi_bands(ModelParams(g=2.0, epsilon=1.0, n_fock=20))
    op.bands[2, 5] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        diagonalize(op, 10)


def test_band_solve_raises_when_the_residual_bound_is_not_met(monkeypatch):
    rng = np.random.default_rng(2)
    monkeypatch.setattr(
        eigen, "dgbtrs", lambda lu, kl, ku, b, ipiv: (rng.standard_normal(b.shape), 0)
    )
    with pytest.raises(LinAlgError, match="inverse iteration"):
        diagonalize(rabi_bands(ModelParams(g=2.0, epsilon=1.0, n_fock=40)), 10)


def test_dense_levels_are_the_leading_columns_of_the_full_solve():
    rng = np.random.default_rng(11)
    h = rng.normal(size=(30, 30))
    ops = (
        build_polaron_rabi(ModelParams(g=1.0, epsilon=0.4, n_fock=20)),
        OperatorMatrix(dim=30, entries=h + h.T, label="random"),
    )
    for op in ops:
        full = diagonalize(op)
        part = diagonalize(op, 7)
        assert part.vectors.shape == (op.dim, 7)
        assert np.array_equal(part.frequencies, full.frequencies[:7])
        assert np.array_equal(part.vectors, full.vectors[:, :7])


@pytest.mark.parametrize("levels", [0, 41])
def test_levels_outside_the_dimension_are_rejected(levels):
    # both branches of diagonalize: the band and the oracle's dense matrix
    for op in (rabi_bands(ModelParams(n_fock=20)), build_rabi(ModelParams(n_fock=20))):
        with pytest.raises(ValueError, match="outside 1..40"):
            diagonalize(op, levels)


def test_vectors_reconstruct_operator():
    # the dense branch of diagonalize, on the oracle's dense matrix
    op = build_rabi(ModelParams(g=0.8, epsilon=0.1, n_fock=20))
    eig = diagonalize(op)
    recon = eig.vectors @ np.diag(eig.frequencies) @ eig.vectors.conj().T
    assert np.allclose(recon, op.entries, atol=1e-12)


def test_phase_gauge_leading_component_positive():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    # a complex Hermitian input, and a real symmetric one that keeps real vectors
    for entries in (h + h.conj().T, h.real + h.real.T):
        eig = diagonalize(OperatorMatrix(dim=40, entries=entries, label="random"))
        assert eig.vectors.dtype == entries.dtype
        for n in range(40):
            col = eig.vectors[:, n]
            lead = int(np.argmax(np.abs(col)))
            assert col[lead].imag == pytest.approx(0.0, abs=1e-14)
            assert col[lead].real > 0.0


def _fix_phases_per_column(vectors):
    """The gauge rule one column at a time: the reference for _fix_phases."""
    out = np.array(vectors, copy=True)
    for n in range(out.shape[1]):
        mags = np.abs(out[:, n])
        lead = int(np.argmax(mags))
        if mags[lead] != 0.0:
            out[:, n] *= mags[lead] / out[lead, n]
    return out


def test_fix_phases_matches_per_column_rule():
    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
    vecs[:, 1] = [0.0, -0.5, 0.5j, 0.5, 0.1, 0.0]   # tie: the first index wins
    vecs[:, 3] = 0.0                               # zero column stays as it is
    for v in (vecs, vecs.real):
        fixed = _fix_phases(v)
        assert fixed.dtype == v.dtype
        assert np.array_equal(fixed, _fix_phases_per_column(v))
    assert _fix_phases(vecs)[1, 1] == 0.5
    assert np.array_equal(_fix_phases(vecs)[:, 3], np.zeros(6))


def test_phase_gauge_is_basis_stable():
    # conjugating the matrix by a diagonal phase must not change the
    # gauge-fixed vectors beyond that same phase, and eigenvalues not at all
    rng = np.random.default_rng(3)
    h = rng.normal(size=(12, 12))
    h = h + h.T
    eig_a = diagonalize(OperatorMatrix(dim=12, entries=h, label="a"))
    eig_b = diagonalize(OperatorMatrix(dim=12, entries=h.copy(), label="b"))
    assert np.array_equal(eig_a.vectors, eig_b.vectors)


def test_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        diagonalize(OperatorMatrix(dim=2, entries=bad, label="raiser"))


def test_convergence_check_reports_drift():
    # start from a deliberately thin truncation so the first step drifts
    params = ModelParams(g=3.0, epsilon=0.0, n_fock=16)
    report = convergence_check(params, (16, 30, 76), n_levels=8, builder=rabi_bands)
    assert isinstance(report, ConvergenceReport)
    assert report.fock_sizes == (16, 30, 76)
    assert report.drifts.shape == (2, 8)
    assert report.drifts[1].max() < report.drifts[0].max()
    assert report.converged_levels == 8


def test_certified_eigensystem_accepts_adequate_truncation():
    params = ModelParams.auto(g=2.0)
    eig = certified_eigensystem(params, levels=10, builder=build_polaron_rabi)
    assert eig.vectors.shape == (params.dim, 10)
    ref = np.linalg.eigvalsh(build_polaron_rabi(params).entries)[:10]
    assert np.allclose(eig.frequencies[:10], ref, atol=1e-12)


def test_certified_eigensystem_rejects_undertruncation():
    params = ModelParams(g=3.0, epsilon=0.0, n_fock=12)
    with pytest.raises(ValueError, match="increase the truncation"):
        certified_eigensystem(params, levels=12, builder=rabi_bands)


def test_certified_eigensystem_solves_once(monkeypatch):
    solves = []
    solve = eigen.diagonalize

    def spy(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(eigen, "diagonalize", spy)
    params = ModelParams(g=2.0, epsilon=1.0, n_fock=40)
    eig = certified_eigensystem(params, levels=24)
    assert len(solves) == 1
    assert np.array_equal(eig.frequencies, solve(rabi_bands(params), 24).frequencies)


@pytest.mark.parametrize("builder", [rabi_bands, build_rabi, build_polaron_rabi])
@pytest.mark.parametrize(("g", "epsilon", "n_fock"), [(3.0, 0.0, 14), (3.0, 2.0, 40), (6.0, 0.0, 60)])
def test_padding_residuals_are_the_padded_vectors_full_residuals(builder, g, epsilon, n_fock):
    # band order and dense entries alike, against the whole product in the larger operator;
    # the dense builders are the oracle's lab-frame matrix and the polaron reference
    params = ModelParams(g=g, epsilon=epsilon, n_fock=n_fock)
    eig = diagonalize(builder(params), 20)
    big = replace(params, n_fock=n_fock + eigen.FOCK_MARGIN)
    kept = (np.arange(2)[:, None] * big.n_fock + np.arange(n_fock)).ravel()
    h = (build_polaron_rabi if builder is build_polaron_rabi else build_rabi)(big).entries
    padded = np.zeros((big.dim, 20), dtype=eig.vectors.dtype)
    padded[kept] = eig.vectors
    full = np.linalg.norm(h @ padded - padded * eig.frequencies, axis=0)
    cheap = eigen._padding_residuals(builder(big), eig, kept)
    assert np.max(full) > 1e-6   # each point has a level the certificate refuses
    assert np.max(np.abs(cheap - full)) <= 1e-12 * max(1.0, np.max(full))


def test_certificate_sees_error_inside_the_block(monkeypatch):
    # a perturbation at photon 0 leaves the coupling out of the block
    # untouched; only the in-block part of the residual can refuse it
    params = ModelParams(g=2.0, epsilon=1.0, n_fock=40)
    certified_eigensystem(params, levels=24)
    solve = eigen.diagonalize

    def perturbed(op, levels):
        eig = solve(op, levels)
        vectors = eig.vectors.copy()
        vectors[0, 3] += 1e-5
        return EigenSystem(eig.frequencies, vectors)

    monkeypatch.setattr(eigen, "diagonalize", perturbed)
    with pytest.raises(ValueError, match="1/24 levels"):
        certified_eigensystem(params, levels=24)


# the cutoff that converges 24 levels to 1e-8, per g
NEEDED_N_FOCK = {1.0: 24, 3.0: 36, 5.0: 52, 6.0: 60}


def test_certified_levels_are_within_the_tolerance_of_the_converged_ones():
    outcomes = []
    for g, needed in NEEDED_N_FOCK.items():
        for epsilon in (0.0, 1.0):
            for n_fock in range(needed - 8, needed + 9):
                params = ModelParams(g=g, epsilon=epsilon, n_fock=n_fock)
                try:
                    eig = certified_eigensystem(params, levels=24)
                except ValueError as exc:
                    assert "increase the truncation" in str(exc)
                    outcomes.append(False)
                    continue
                _, ladder = drift_ladder(params, (n_fock, n_fock + 120), 24, rabi_bands)
                assert np.max(np.abs(eig.frequencies - ladder[-1].frequencies)) <= eigen.CERTIFY_TOL
                outcomes.append(True)
    assert any(outcomes) and not all(outcomes)


@pytest.mark.xfail(
    raises=ValueError, strict=True,
    reason="the first-order residual bound is loose: 1.08e-6 where the levels drift 4e-14",
)
def test_first_order_certificate_accepts_converged_levels():
    params = ModelParams(g=3.0, epsilon=2.0, n_fock=40)
    report = convergence_check(params, (40, 160), n_levels=20)
    assert report.converged_levels == 20
    certified_eigensystem(params, levels=20)


def test_convergence_check_needs_two_sizes():
    with pytest.raises(ValueError, match="two Fock sizes"):
        convergence_check(ModelParams(n_fock=20), (20,))


def test_the_eigensystem_is_the_one_level_count():
    # an EigenSystem is exactly the retained levels, so nothing that takes
    # one may take a second level count beside it
    assert tuple(f.name for f in fields(EigenSystem)) == ("frequencies", "vectors")
    takers, offenders = [], []
    for info in pkgutil.iter_modules(usc_relax.__path__):
        module = importlib.import_module(f"usc_relax.{info.name}")
        for name, func in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or func.__module__ != module.__name__:
                continue
            params = inspect.signature(func).parameters
            if any("EigenSystem" in str(p.annotation) for p in params.values()):
                takers.append(f"{info.name}.{name}")
                if {"m_levels", "levels"} & set(params):
                    offenders.append(f"{info.name}.{name}")
    assert "lindblad.build_liouvillian" in takers
    assert offenders == []


# the dense operator world and the printed dressed-element table, which the
# library no longer ships (tests/oracles.py has them), and the dressed-ladder
# rate and pair paths that duplicated lindblad's coupling and rate assembly
MOVED_TO_ORACLES = (
    "build_rabi",
    "fock_ladder",
    "spin_operators",
    "_tensor",
    "steady_state",
    "_closed_class_count",
    "DegenerateSteadyStateError",
    "gibbs_state",
    "printed_dressed_table",
    "usc_rate_limits",
    "RateLimitRow",
    "symmetric_spectrum_and_hopfield",
)


def test_no_library_module_binds_a_name_moved_to_the_oracles():
    modules = [usc_relax] + [
        importlib.import_module(f"usc_relax.{info.name}")
        for info in pkgutil.iter_modules(usc_relax.__path__)
    ]
    bound = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in MOVED_TO_ORACLES
        if name in vars(module)
    ]
    assert len(modules) > 10
    assert bound == []
    assert not hasattr(Liouvillian, "matrix")
