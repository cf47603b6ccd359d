"""Double-well dipole solver: FD spectra vs Numerov shooting, bisection and 80-bit Sturm oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from usc_relax import dipole
from usc_relax.dipole import (
    BoundaryLeakWarning,
    WellParams,
    barrier_height,
    potential,
    solve_double_well,
    tla_parameters,
)

from oracles import shooting_levels, sturm_levels, tridiagonal_levels, well_matrix

LONGDOUBLE_IS_WIDER = np.finfo(np.longdouble).eps < 1e-18
DEEP_WELLS = [WellParams(mu2=mu2, mass=0.1, x_max=8.0) for mu2 in (2.0, 3.0, 4.0)]


# ---------------------------------------------------------------------------
# potential shape and parameter validation
# ---------------------------------------------------------------------------

def test_potential_shape_and_barrier():
    p = WellParams()
    x_min = p.mu2 / p.mu4**2
    assert potential(np.array([0.0]), p)[0] == 0.0
    assert potential(np.array([x_min]), p)[0] == pytest.approx(-(p.mu2**4) / (4 * p.mu4**4))
    assert barrier_height(p) == pytest.approx(0.0, abs=1e-12)
    tilted = WellParams(tilt=0.05)
    assert barrier_height(tilted) > barrier_height(p)


def test_barrier_requires_double_well():
    # tilt beyond the fold leaves a single minimum and no interior maximum
    with pytest.raises(ValueError, match="interior barrier"):
        barrier_height(WellParams(tilt=3.0))


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"mu2": 0.0}, "mu2"),
        ({"mu4": -1.0}, "mu4"),
        ({"mass": 0.0}, "mass"),
        ({"x_max": -2.0}, "x_max"),
        ({"grid_points": 100}, "grid_points"),
    ],
)
def test_params_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        WellParams(**kwargs)


def test_solver_rejects_empty_request():
    with pytest.raises(ValueError, match="n_levels"):
        solve_double_well(WellParams(), n_levels=0)


# ---------------------------------------------------------------------------
# eigensolver vs shooting oracle
# ---------------------------------------------------------------------------

def test_levels_match_shooting_oracle():
    p = WellParams()
    full = np.linspace(-p.x_max, p.x_max, 1601)
    oracle = shooting_levels(full, potential(full, p), p.mass, 4, e_top=3.0, n_scan=1200)
    fd = [e for e, _ in solve_double_well(p, 4)]
    assert len(oracle) == 4
    for a, b in zip(oracle, fd):
        assert b == pytest.approx(a, abs=1e-6)


def test_levels_converge_under_grid_doubling():
    coarse = [e for e, _ in solve_double_well(WellParams(grid_points=8001), 4)]
    fine = [e for e, _ in solve_double_well(WellParams(grid_points=16001), 4)]
    for a, b in zip(coarse, fine):
        assert abs(a - b) < 2e-6


def test_pure_quartic_limit():
    # mu2 ~ 0 leaves H = p^2/2 + x^4/4; freeze the ground energy and
    # cross-check against the shooting oracle on an independent grid
    p = WellParams(mu2=1e-6)
    levels = [e for e, _ in solve_double_well(p, 2)]
    assert levels[0] == pytest.approx(0.4208049534, abs=5e-7)
    full = np.linspace(-p.x_max, p.x_max, 1601)
    oracle = shooting_levels(full, potential(full, p), p.mass, 2, e_top=3.0, n_scan=800)
    assert levels[0] == pytest.approx(oracle[0], abs=1e-6)
    assert levels[1] == pytest.approx(oracle[1], abs=1e-6)


def test_wavefunctions_normalized_and_parity_clean():
    p = WellParams()
    x = p.grid()
    dx = x[1] - x[0]
    for _, psi in solve_double_well(p, 4):
        assert psi @ psi * dx == pytest.approx(1.0, abs=1e-12)
        # untilted well: eigenstates have definite parity
        assert abs(psi @ (x * psi) * dx) < 1e-8


def test_deep_wells_suppress_tunneling():
    splittings = []
    for mu2 in (2.0, 3.0, 4.0):
        p = WellParams(mu2=mu2, mass=0.1, x_max=8.0)
        e0, e1 = (e for e, _ in solve_double_well(p, 2))
        splittings.append(e1 - e0)
    assert splittings[0] == pytest.approx(1.845328, rel=1e-4)
    assert splittings[1] == pytest.approx(2.902305e-2, rel=1e-4)
    # the 80-bit Sturm bisection of this matrix (sturm_levels) gives 1.0560492e-6
    assert splittings[2] == pytest.approx(1.056049e-6, rel=1e-5)
    assert splittings[0] > splittings[1] > splittings[2] > 0.0


def _norm(p: WellParams) -> float:
    """The row-sum bound on ||T|| the solver's tolerances are scaled by."""
    diag, off = well_matrix(p)
    return float(np.max(np.abs(diag)) + 2.0 * abs(off[0]))


@pytest.mark.skipif(not LONGDOUBLE_IS_WIDER, reason="np.longdouble is no wider than float64")
@pytest.mark.parametrize("p", [WellParams()] + DEEP_WELLS, ids=["default", "mu2=2", "mu2=3", "mu2=4"])
def test_doublet_matches_the_extended_precision_sturm_oracle(p):
    # full-grid float64 bisection is 2.5e-10 to 1.1e-9 off on these wells
    levels = np.array([e for e, _ in solve_double_well(p, 2)])
    diag, off = well_matrix(p, np.longdouble)
    exact = sturm_levels(diag, off, levels)
    assert np.max(np.abs((levels - exact).astype(float))) <= 1e-11


@settings(max_examples=25, deadline=None)
@given(
    mu2=st.floats(0.5, 4.0),
    mass=st.sampled_from([0.1, 1.0]),
    tilt=st.sampled_from([0.0, 1e-7, -1e-7, 1e-5, -1e-5, 0.05, -0.05]),
    x_max=st.floats(2.6, 8.0),
    grid_points=st.integers(200, 16001),
    n_levels=st.integers(1, 6),
)
def test_solver_matches_bisection_over_the_wells(mu2, mass, tilt, x_max, grid_points, n_levels):
    p = WellParams(mu2=mu2, mass=mass, tilt=tilt, x_max=x_max, grid_points=grid_points)
    eps_norm = np.finfo(float).eps * _norm(p)
    tol = dipole.RESIDUAL_TOL * eps_norm
    reference = np.array([e for e, _ in tridiagonal_levels(p, n_levels + 1)])
    # a pair split below the tolerance across the last level is refused, not solved
    assume(reference[n_levels] - reference[n_levels - 1] > 2.0 * tol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryLeakWarning)
        levels = solve_double_well(p, n_levels)
    energies = np.array([e for e, _ in levels])
    assert np.all(np.abs(energies - reference[:n_levels]) <= 4.0 * eps_norm)
    # the Sturm count: exactly n_levels of the oracle's levels up to the last one + tol
    assert np.count_nonzero(reference <= energies[-1] + tol) == n_levels
    # residuals of the unit vectors in longdouble; the returned vectors carry
    # a 1 / sqrt(dx) scaling whose rounding moves them by far less than eps ||T||
    diag, off = well_matrix(p, np.longdouble)
    x = p.grid()
    dx = x[1] - x[0]
    for energy, psi in levels:
        unit = psi.astype(np.longdouble) * np.sqrt(np.longdouble(dx))
        residual = (diag - np.longdouble(energy)) * unit
        residual[1:] += off * unit[:-1]
        residual[:-1] += off * unit[1:]
        assert float(np.sqrt(residual @ residual)) <= tol + eps_norm
    units = np.array([psi for _, psi in levels]) * np.sqrt(dx)
    assert np.max(np.abs(units @ units.T - np.eye(n_levels))) <= 1e-13


def test_the_fine_grid_sees_no_full_accuracy_bisection(monkeypatch):
    p = WellParams()
    solves, counts = [], []
    eigh_tridiagonal, dstebz = dipole.eigh_tridiagonal, dipole.dstebz

    def eigh_spy(d, e, **kwargs):
        solves.append(len(d))
        return eigh_tridiagonal(d, e, **kwargs)

    def dstebz_spy(d, e, range_, vl, vu, il, iu, tol, order):
        counts.append((len(d), range_, tol >= vu - vl))
        return dstebz(d, e, range_, vl, vu, il, iu, tol, order)

    monkeypatch.setattr(dipole, "eigh_tridiagonal", eigh_spy)
    monkeypatch.setattr(dipole, "dstebz", dstebz_spy)
    solve_double_well(p, 4)
    assert solves == [p.grid_points // dipole.COARSE_RATIO]
    # one count by value whose tolerance is the whole interval: no bisection
    assert counts == [(p.grid_points, 1, True)]


def _edited_starts(monkeypatch, edit):
    starts = dipole._coarse_starts
    monkeypatch.setattr(dipole, "_coarse_starts", lambda *args: edit(starts(*args)))


def test_a_start_leaning_on_a_found_level_still_reaches_the_next(monkeypatch):
    # without deflation the second start falls back to level 0 (nearer its
    # Rayleigh quotient), two starts reach one level, and the count refuses
    def lean(starts):
        starts[1] = 0.8 * starts[0] + 0.6 * starts[1]
        return starts

    _edited_starts(monkeypatch, lean)
    p = WellParams(grid_points=4001)
    levels = [e for e, _ in solve_double_well(p, 2)]
    reference = [e for e, _ in tridiagonal_levels(p, 2)]
    assert levels == pytest.approx(reference, abs=4.0 * np.finfo(float).eps * _norm(p))


def test_a_crude_start_converges_by_rayleigh_quotient_iteration(monkeypatch):
    # two broad even bumps at the well minima: four steps with the shift
    # updated; a shift left at the start's Rayleigh quotient converges
    # linearly and runs out of steps
    p = WellParams(grid_points=4001)
    x = p.grid()
    bumps = np.exp(-((x**2 - p.mu2**2) ** 2) / 4.0)
    _edited_starts(monkeypatch, lambda starts: bumps[None, :])
    (energy, _), = solve_double_well(p, 1)
    reference = tridiagonal_levels(p, 1)[0][0]
    assert energy == pytest.approx(reference, abs=4.0 * np.finfo(float).eps * _norm(p))


def test_the_sturm_count_refuses_a_skipped_level(monkeypatch):
    p = WellParams(grid_points=4001)
    skip = dipole._coarse_starts(p, p.grid(), 3)[[0, 2]]
    _edited_starts(monkeypatch, lambda starts: skip)
    with pytest.raises(RuntimeError, match="Sturm count finds 3 levels"):
        solve_double_well(p, 2)


def test_a_pair_split_below_the_tolerance_is_refused_across_the_last_level():
    # mass 1 in mu2 = 4 wells: the ground doublet is split by about 1e-25
    p = WellParams(mu2=4.0, x_max=6.0, grid_points=4001)
    with pytest.raises(RuntimeError, match="Sturm count finds 2 levels"):
        solve_double_well(p, 1)
    (e0, _), (e1, _) = solve_double_well(p, 2)
    assert abs(e1 - e0) <= dipole.RESIDUAL_TOL * np.finfo(float).eps * _norm(p)


def test_the_solver_raises_when_a_level_does_not_converge(monkeypatch):
    monkeypatch.setattr(dipole, "MAX_STEPS", 1)
    with pytest.raises(RuntimeError, match="inverse iteration left level 0"):
        solve_double_well(WellParams(), 2)


@pytest.mark.parametrize("level", [1, 3])
def test_odd_states_point_the_same_way_on_every_grid(level):
    # their lobe integrals are rounding (1e-10 to 1e-12 of sum |psi|), which
    # flipped them between grids when the integral alone set the sign
    left_lobes = set()
    for grid_points in (4001, 8001, 16001):
        p = WellParams(grid_points=grid_points)
        x = p.grid()
        for psi in (solve_double_well(p, 4)[level][1], tridiagonal_levels(p, 4)[level][1]):
            assert abs(psi.sum()) < 1e-8 * np.abs(psi).sum()
            left_lobes.add(bool(psi[x < 0.0].sum() > 0.0))
    assert len(left_lobes) == 1


def test_resolved_lobe_integrals_stay_positive():
    for p in (WellParams(), WellParams(tilt=0.01), WellParams(tilt=-1e-5)):
        for level, (_, psi) in enumerate(solve_double_well(p, 4)):
            if p.tilt or level % 2 == 0:
                assert psi.sum() > 0.0


def test_boundary_leak_warning():
    with pytest.warns(BoundaryLeakWarning, match="increase x_max"):
        solve_double_well(WellParams(x_max=2.6, grid_points=4001), 4)


# ---------------------------------------------------------------------------
# two-level reduction
# ---------------------------------------------------------------------------

def test_default_two_level_report():
    rep = tla_parameters(WellParams())
    assert rep.omega_d == pytest.approx(0.052994733, abs=1e-8)
    assert rep.x_10 == pytest.approx(1.586123726, abs=1e-8)
    assert rep.epsilon == 0.0
    assert rep.gap_ratio == pytest.approx(30.1646566, abs=1e-6)
    assert rep.valid


def test_localized_combinations_sit_in_the_wells():
    p = WellParams()
    x = p.grid()
    dx = x[1] - x[0]
    (e0, psi0), (e1, psi1) = solve_double_well(p, 2)
    rep = tla_parameters(p)
    centers = sorted(
        float(c @ (x * c) * dx)
        for c in ((psi0 + psi1) / math.sqrt(2.0), (psi0 - psi1) / math.sqrt(2.0))
    )
    assert centers[0] == pytest.approx(-rep.x_10, abs=1e-9)
    assert centers[1] == pytest.approx(rep.x_10, abs=1e-9)


@pytest.mark.parametrize("tilt", [0.002, 0.005, 0.01])
def test_tilted_splitting_matches_two_level_prediction(tilt):
    rep = tla_parameters(WellParams())
    e0, e1 = (e for e, _ in solve_double_well(WellParams(tilt=tilt), 2))
    predicted = math.hypot(rep.omega_d, 2.0 * tilt * rep.x_10)
    assert predicted == pytest.approx(e1 - e0, rel=5e-3)
    assert rep.epsilon == 0.0  # report itself is built from the untilted well
    assert tla_parameters(WellParams(tilt=tilt)).epsilon == pytest.approx(
        2.0 * tilt * rep.x_10
    )


def test_shallow_well_flagged_invalid():
    rep = tla_parameters(WellParams(mu2=1.0))
    assert not rep.valid
    assert rep.gap_ratio < 10.0


def test_reduction_silent_on_good_parameters():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tla_parameters(WellParams())
