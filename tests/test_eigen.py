"""Eigensolver wrapper: gauge fixing, hermiticity guard, truncation certification."""

from __future__ import annotations

import numpy as np
import pytest

from usc_relax.eigen import (
    ConvergenceReport,
    _fix_phases,
    certified_eigensystem,
    convergence_check,
    diagonalize,
)
from usc_relax.operators import (
    ModelParams,
    OperatorMatrix,
    build_polaron_rabi,
    build_rabi,
)


def test_frequencies_match_numpy():
    op = build_rabi(ModelParams(g=1.2, epsilon=0.4, n_fock=30))
    eig = diagonalize(op)
    ref = np.linalg.eigvalsh(op.entries)
    assert np.allclose(eig.frequencies, ref, atol=1e-13)
    assert eig.dim == 60
    assert eig.converged_levels == 60


def test_vectors_reconstruct_operator():
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
    report = convergence_check(params, (16, 30, 76), n_levels=8, builder=build_rabi)
    assert isinstance(report, ConvergenceReport)
    assert report.fock_sizes == (16, 30, 76)
    assert report.drifts.shape == (2, 8)
    assert report.drifts[1].max() < report.drifts[0].max()
    assert report.converged_levels == 8


def test_certified_eigensystem_accepts_adequate_truncation():
    params = ModelParams.auto(g=2.0)
    eig = certified_eigensystem(params, levels=10, builder=build_polaron_rabi)
    assert eig.converged_levels == 10
    ref = np.linalg.eigvalsh(build_polaron_rabi(params).entries)[:10]
    assert np.allclose(eig.frequencies[:10], ref, atol=1e-12)


def test_certified_eigensystem_rejects_undertruncation():
    params = ModelParams(g=3.0, epsilon=0.0, n_fock=12)
    with pytest.raises(ValueError, match="increase the truncation"):
        certified_eigensystem(params, levels=12, builder=build_rabi)


def test_convergence_check_needs_two_sizes():
    with pytest.raises(ValueError, match="two Fock sizes"):
        convergence_check(ModelParams(n_fock=20), (20,))
