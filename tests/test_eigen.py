"""Eigensolver wrapper: band solve, hermiticity guard, truncation certification, sign freedom."""

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
from usc_relax.dynamics import right_vacuum_state
from usc_relax.eigen import EigenSystem, certified_eigensystem, diagonalize
from usc_relax.lindblad import (
    Liouvillian,
    Trajectory,
    build_liouvillian,
    cavity_bath,
    coupling_elements,
    dipole_bath,
    evolve,
    liouvillian_gap,
    project_pure_state,
    transition_lines,
)
from usc_relax.operators import (
    ModelParams,
    OperatorMatrix,
    build_polaron_rabi,
    default_n_fock,
    rabi_bands,
)
from usc_relax.response import cavity_structure_factor, dipole_structure_factor


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
    # a failed split grows to the whole band: the unsplit solve, with no tail to factor
    dim = GAP_MAP_POINT.dim
    if start == "tail below sigma":
        assert len(infos) == 1 and infos[0] > 0 and swept == [dim]
    else:
        assert infos == [0] and swept == [first[0], dim]


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


def _lapack_calls(monkeypatch, *names):
    """The positional arguments of every call the solves below make to each named routine."""
    calls = {name: [] for name in names}
    for name in names:
        routine = getattr(eigen, name)

        def spy(*args, _routine=routine, _calls=calls[name], **kwargs):
            _calls.append(args)
            return _routine(*args, **kwargs)

        monkeypatch.setattr(eigen, name, spy)
    return calls


@pytest.mark.parametrize(
    ("g", "epsilon", "solves"), [(0.5, 0.0, 2), (2.0, 1.37, 2), (2.0, 2.0, 1), (3.5, 1.0, 1)]
)
def test_band_solve_orthonormalizes_once(monkeypatch, g, epsilon, solves):
    # the growth test decides on a second solve (dgbtrs) before any QR
    # (dgeqrf), so a gap_map point's solve runs one QR, and a first solve
    # that passes the test is the only one
    calls = _lapack_calls(monkeypatch, "dgeqrf", "dgbtrs")
    _assert_band_solve_matches_oracle(ModelParams(g=g, epsilon=epsilon, n_fock=89), 24)
    assert len(calls["dgeqrf"]) == 1 and len(calls["dgbtrs"]) == solves


def test_a_second_solve_starts_from_unit_columns(monkeypatch):
    # couplings below the rounding leave near-degenerate pairs that one solve
    # from the random start does not resolve: the growth test asks for a
    # second, from the first solution with each column scaled to unit norm
    params = ModelParams(g=7.03435602632105e-35, epsilon=7.03435602632105e-35, omega_d=0.0)
    calls = _lapack_calls(monkeypatch, "dgeqrf", "dgbtrs")
    _assert_band_solve_matches_oracle(params, 24)
    assert len(calls["dgbtrs"]) == 2 and len(calls["dgeqrf"]) == 1
    second = calls["dgbtrs"][1][3].reshape(24, -1)
    assert np.allclose(np.linalg.norm(second, axis=1), 1.0, rtol=1e-14, atol=0.0)


def test_band_solve_of_a_zero_band():
    # eps ||H|| is tiny here, so the solutions sit near overflow: the QR must
    # see them scaled
    op = rabi_bands(ModelParams(n_fock=20))
    op = replace(op, bands=np.zeros_like(op.bands))
    eig = _assert_band_solve_matches_oracle(ModelParams(n_fock=20), 10, op)
    assert np.array_equal(eig.frequencies, np.zeros(10))


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
    # the vectors agree up to a sign per column, which neither solver fixes
    signs = np.sign(np.einsum("ij,ij->j", band.vectors, v))
    assert np.max(np.abs(band.vectors - v * signs)) <= 1e-12


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


def test_dense_solve_keeps_the_entries_dtype():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    # a complex Hermitian input, and a real symmetric one that keeps real vectors
    for entries in (h + h.conj().T, h.real + h.real.T):
        eig = diagonalize(OperatorMatrix(dim=40, entries=entries, label="random"))
        assert eig.vectors.dtype == entries.dtype
        recon = (eig.vectors * eig.frequencies) @ eig.vectors.conj().T
        assert np.allclose(recon, entries, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    flips=st.lists(st.booleans(), min_size=20, max_size=20),
    g=st.sampled_from([1.0, 2.5]),
    epsilon=st.sampled_from([0.0, 1.0]),
)
def test_no_printed_quantity_sees_an_eigenvector_sign(flips, g, epsilon):
    # no solver fixes a sign per eigenvector, so every quantity a table
    # prints must come out of either choice of signs to the same bits
    params = ModelParams.auto(g=g, epsilon=epsilon)
    eig = certified_eigensystem(params, 20)
    flipped = EigenSystem(eig.frequencies, eig.vectors * np.where(flips, -1.0, 1.0))
    baths = [cavity_bath(0.05), dipole_bath(0.2)]
    omegas = np.linspace(0.05, 3.0, 60)
    psi = right_vacuum_state(params)
    times = np.linspace(0.0, 200.0, 50)
    out = []
    for e in (eig, flipped):
        lv = build_liouvillian(e, params, baths, temperature=0.1)
        rho0, deficit = project_pure_state(e, psi)
        sx = evolve(lv, rho0, times, {"sx": coupling_elements(e, params, "dipole")})
        out.append((
            lv.rates,
            liouvillian_gap(lv),
            cavity_structure_factor(e, params, 0.2, omegas, 0.01).values,
            dipole_structure_factor(e, params, 0.2, omegas, 0.01).values,
            sx.observables["sx"],
            deficit,
        ))
    for a, b in zip(*out):
        assert np.array_equal(a, b)


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
    # one build and one solve: the band certificate needs no second operator
    solves, builds = [], []
    solve = eigen.diagonalize

    def spy(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    def builder(params):
        builds.append(params)
        return rabi_bands(params)

    monkeypatch.setattr(eigen, "diagonalize", spy)
    params = ModelParams(g=2.0, epsilon=1.0, n_fock=40)
    eig = certified_eigensystem(params, levels=24, builder=builder)
    assert len(solves) == 1 and builds == [params]
    assert np.array_equal(eig.frequencies, solve(rabi_bands(params), 24).frequencies)


@pytest.mark.parametrize("builder", [rabi_bands, build_rabi, build_polaron_rabi])
@pytest.mark.parametrize(("g", "epsilon", "n_fock"), [(3.0, 0.0, 14), (3.0, 2.0, 40), (6.0, 0.0, 60)])
def test_padding_residuals_are_the_padded_vectors_full_residuals(
    monkeypatch, builder, g, epsilon, n_fock
):
    # the certificate's residuals, from the continued band or the dense operator
    # rebuilt at n_fock + FOCK_MARGIN, against the whole product in the dense
    # matrix at that larger cutoff; the dense builders are the oracle's
    # lab-frame matrix and the polaron reference
    residuals = []
    padding = eigen._padding_residuals

    def spy(*args):
        residuals.append(padding(*args))
        return residuals[-1]

    monkeypatch.setattr(eigen, "_padding_residuals", spy)
    params = ModelParams(g=g, epsilon=epsilon, n_fock=n_fock)
    with pytest.raises(ValueError, match="increase the truncation"):
        certified_eigensystem(params, 20, builder)   # each point has a level it refuses
    [cheap] = residuals
    eig = diagonalize(builder(params), 20)
    big = replace(params, n_fock=n_fock + eigen.FOCK_MARGIN)
    kept = (np.arange(2)[:, None] * big.n_fock + np.arange(n_fock)).ravel()
    h = (build_polaron_rabi if builder is build_polaron_rabi else build_rabi)(big).entries
    padded = np.zeros((big.dim, 20), dtype=eig.vectors.dtype)
    padded[kept] = eig.vectors
    full = np.linalg.norm(h @ padded - padded * eig.frequencies, axis=0)
    assert np.max(np.abs(cheap - full)) <= 1e-12 * max(1.0, np.max(full))


@pytest.mark.parametrize("rows", range(1, 7))
def test_band_product_covers_every_row_the_leading_rows_reach(rows):
    # vectors on the first `rows` rows of a band with half-bandwidth 2,
    # fewer rows than that included, against the dense matrix that the band
    # and its slots past the last row continue to dim + 2 rows
    rng = np.random.default_rng(rows)
    bands = rng.standard_normal((3, 6))
    dense = np.zeros((8, 8))
    for k in range(3):
        for j in range(6):
            dense[j + k, j] = dense[j, j + k] = bands[k, j]
    vecs = rng.standard_normal((rows, 3))
    product = eigen._band_matvec(bands, vecs)
    assert product.shape == (rows + 2, 3)
    assert np.allclose(product, dense[: rows + 2, :rows] @ vecs, rtol=0.0, atol=1e-14)


def _split_rows(params):
    """The band rows a solve at params keeps, read from _first_split."""
    return eigen._first_split(rabi_bands(params).bands, 24)[0]


def test_padding_residuals_of_a_split_solve_are_its_full_residuals(monkeypatch):
    # an accepted point whose vectors are exactly zero past the split: the
    # certificate's residual, taken over the rows they occupy, against the
    # whole product in the dense matrix at n_fock + FOCK_MARGIN
    residuals = []
    padding = eigen._padding_residuals

    def spy(*args):
        residuals.append(padding(*args))
        return residuals[-1]

    monkeypatch.setattr(eigen, "_padding_residuals", spy)
    params = GAP_MAP_POINT
    eig = certified_eigensystem(params, 24)
    [cheap] = residuals
    split = _split_rows(params)
    assert split < params.dim
    assert not np.any(eig.vectors[rabi_bands(params).to_library >= split])
    big = replace(params, n_fock=params.n_fock + eigen.FOCK_MARGIN)
    kept = (np.arange(2)[:, None] * big.n_fock + np.arange(params.n_fock)).ravel()
    padded = np.zeros((big.dim, 24))
    padded[kept] = eig.vectors
    h = build_rabi(big).entries
    full = np.linalg.norm(h @ padded - padded * eig.frequencies, axis=0)
    assert np.max(np.abs(cheap - full)) <= 1e-12


def test_certificate_sees_an_entry_past_the_split(monkeypatch):
    # the certificate's window is the rows the vectors occupy, not the rows
    # the solver kept: an entry placed past the split widens it and is refused
    params = GAP_MAP_POINT
    row = np.flatnonzero(rabi_bands(params).to_library == _split_rows(params) + 20)[0]
    solve = eigen.diagonalize

    def perturbed(op, levels):
        eig = solve(op, levels)
        vectors = eig.vectors.copy()
        vectors[row, 3] += 1e-5
        return EigenSystem(eig.frequencies, vectors)

    monkeypatch.setattr(eigen, "diagonalize", perturbed)
    with pytest.raises(ValueError, match="1/24 levels"):
        certified_eigensystem(params, levels=24)


def test_the_band_slots_past_the_last_row_are_never_solved_with():
    # at g = 6, n_fock = 8 the coupling out of the block, g sqrt(8) / 2 = 8.49,
    # exceeds every in-band entry, so a solver that read it would change
    op = rabi_bands(ModelParams(g=6.0, epsilon=0.5, n_fock=8))
    assert op.bands[2, -1] > max(np.max(np.abs(op.bands[k, : op.dim - k])) for k in range(3))
    cut = op.bands.copy()
    cut[2, -2:] = 0.0
    for levels in (4, op.dim):
        a, b = diagonalize(op, levels), diagonalize(replace(op, bands=cut), levels)
        assert np.array_equal(a.frequencies, b.frequencies)
        assert np.array_equal(a.vectors, b.vectors)


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
# library no longer ships (tests/oracles.py has them), the dressed-ladder
# rate and pair paths that duplicated lindblad's coupling and rate assembly,
# and the references only tests read: the dressed elements keyed by branch
# and the block s_x element (inlined into its one test), and the dense states
# of an evolved trajectory with the pairwise coherences that filled them
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
    "dressed_matrix_elements",
    "DressedElements",
    "block_sx_element",
    "dense_states",
    "_coherences",
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
    assert not hasattr(Trajectory, "trace_drift")
    assert not hasattr(Trajectory, "min_eigenvalue")
    assert [f.name for f in fields(Trajectory)] == ["times", "populations", "observables"]
