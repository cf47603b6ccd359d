"""Thermalizing secular master equation in the system eigenbasis.

The dissipators act between exact eigenlevels |n>, |m> with jump operators
|n><m| and golden-rule rates J(|w_mn|) |<n|X|m>|^2, where X is the bath
coupling operator (photon quadrature a - a^dag for the cavity channel, s_x
for the dipole).  Downward terms are weighted by (1 + N_T), upward by N_T,
which makes the Gibbs state of the retained levels exactly stationary.
transition_lines() is that line list (w_mn, |<n|X|m>|^2); the response
spectra read the same list and the same Boltzmann weights.  The elements
<n|X|m> come from coupling_elements(), which applies X to the retained
vectors through its shift structure instead of forming it.

Because every jump is rank one between eigenlevels, the generator is exactly
a Pauli rate matrix W on the populations plus an independent exponential
decay of each coherence (Breuer & Petruccione, The Theory of Open Quantum
Systems).  The gap and the time evolution come from those two M x M
blocks, so the cost scales as M^3.  evolve pays one expm of W per distinct
time step for the populations.  Each coherence decay factors per level,
exp(lam_ij t) = a_i(t) conj(a_j(t)), so it pays one exponential per time
and level that a coherence of the initial state touches, and it reads the
observables off the populations and those phases without forming any
state: a trajectory is its populations plus the observables asked for.

The spectrum and the gap do not diagonalize W itself.  Detailed balance,
k_ij pi_j = k_ji pi_i with pi the Boltzmann weights, makes W similar to the
symmetric S_ij = sqrt(k_ij) sqrt(k_ji), S_ii = -G_i (D^-1 W D with
D = diag(sqrt(pi)); van Kampen, Stochastic Processes in Physics and
Chemistry), so the population eigenvalues are one eigvalsh of S.  Where the
Boltzmann factor is zero (T = 0, w/T > 700) the similarity holds in the
limit, which keeps the eigenvalues.  build_liouvillian makes every rate pair
balanced; a Liouvillian whose rates break that beyond rounding, with
respect to its own level_freqs and temperature, is refused.  So is a gap
below the float64 floor of that eigvalsh, GAP_FLOOR eps ||S||_2: deep in
the ultrastrong regime the true gap falls below it, and the eigensolve
then returns rounding, not the gap.  Both rate blocks use one Boltzmann
factor, e^{-w/T}, taken as zero at T = 0 and past w/T > 700.

The dense M^2 x M^2 superoperator, the steady state, the Gibbs state and
the dense states of a trajectory are not formed here; the test oracles
rebuild them as independent checks.

Truncation is two-tier: the Hamiltonian is built at full n_fock, but only
its lowest M eigenlevels are solved for and kept for the master equation.
Those M levels are the EigenSystem handed in; no function here takes a
second level count.  Inside an exactly degenerate subspace the basis
depends on the solver, and so do the single matrix elements that touch it;
sums over the subspace do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .eigen import EigenSystem
from .operators import ModelParams

DEGENERACY_TOL = 1e-9      # |w_mn|/omega_c treated as an exact degeneracy
STATIONARY_TOL = 10.0      # |eigenvalue| identifying the steady-state mode, in units of M eps ||S||_2
BALANCE_RTOL = 1e-13       # rate-pair mismatch taken as rounding; build_liouvillian's is a few ulps
GAP_FLOOR = 1e3            # smallest reportable population gap, in units of eps * ||S||_2


class OverdampedSeriesError(ValueError):
    """Oscillation fit requested on a series without enough extrema."""


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose occupation 1/(e^{omega/T} - 1); exactly 0 at T = 0 (by branch)."""
    if temperature <= 0.0:
        return 0.0
    x = omega / temperature
    if x > 700.0:
        return 0.0
    if x <= 0.0:
        raise ValueError(f"thermal occupation needs omega > 0, got {omega}")
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class BathSpec:
    """One dissipation channel: coupling operator choice plus spectral law.

    law "ohmic" gives J(w) = strength * w / ref_freq, law "radiative" gives
    J(w) = strength * (w / ref_freq)**nu (nu = 3 for a 3D photon bath).
    """

    channel: str              # "cavity" or "dipole"
    law: str                  # "ohmic" or "radiative"
    strength: float           # gamma or kappa, in omega_c units
    ref_freq: float           # normalization frequency (omega_c or omega_d)
    nu: float = 3.0

    def __post_init__(self):
        if self.channel not in ("cavity", "dipole"):
            raise ValueError(f"unknown bath channel {self.channel!r}")
        if self.law not in ("ohmic", "radiative"):
            raise ValueError(f"unknown spectral law {self.law!r}")
        if self.strength < 0.0:
            raise ValueError(f"bath strength must be >= 0, got {self.strength}")
        if self.ref_freq <= 0.0:
            raise ValueError(f"ref_freq must be positive, got {self.ref_freq}")
        if self.law == "radiative" and self.nu < 1.0:
            raise ValueError(f"radiative exponent must be >= 1, got {self.nu}")

    def spectral_density(self, omega: float | np.ndarray) -> float | np.ndarray:
        """J(|omega|) for this channel, elementwise on arrays; J(0) = 0 for both laws."""
        w = abs(omega) / self.ref_freq
        if self.law == "ohmic":
            return self.strength * w
        return self.strength * w**self.nu


def cavity_bath(gamma: float, omega_c: float = 1.0) -> BathSpec:
    """Ohmic flux-coupled cavity bath, J = gamma w / omega_c."""
    return BathSpec(channel="cavity", law="ohmic", strength=gamma, ref_freq=omega_c)


def dipole_bath(kappa: float, omega_d: float = 1.0) -> BathSpec:
    """Radiative dipole bath, J = kappa (w/omega_d)^3."""
    return BathSpec(channel="dipole", law="radiative", strength=kappa, ref_freq=omega_d)


def coupling_elements(eig: EigenSystem, params: ModelParams, channel: str) -> np.ndarray:
    """<n|X|m> between the retained levels, with X applied through its structure.

    Both couplings are Y -/+ Y^dag with Y a weighted shift of the vectors,
    taken as (spin_n + 1, n_fock, M) blocks, matter index slow.  The cavity
    couples through the quadrature a - a^dag, where a shifts the photon
    index down with weight sqrt(n) (anti-Hermitian; only |elements|^2 enter
    rates); the dipole through S_x, whose upper half shifts the matter index
    (m = N/2 first) with weight sqrt(j(j+1) - m(m+1))/2, the superdiagonal
    of the spin-N/2 S_x in closed form.  So <n|X|m> is one product of
    shifted blocks plus or minus its adjoint, and no dim x dim operator is
    formed.  Both couplings commute with the polaron transform, so either
    frame's eigenvectors may be passed.
    """
    v = eig.vectors
    if len(v) != params.dim:
        raise ValueError(f"model dim {params.dim} != eigensystem dim {len(v)}")
    m = v.shape[1]
    blocks = v.reshape(params.spin_n + 1, params.n_fock, m)
    if channel == "cavity":
        weights = np.sqrt(np.arange(1.0, params.n_fock))[:, None]   # a|n> = sqrt(n)|n-1>
        lower, upper, sign = blocks[:, :-1], blocks[:, 1:], -1.0
    elif channel == "dipole":
        j = params.spin_n / 2.0
        mm = j - np.arange(1.0, params.spin_n + 1)   # the lower level of each S_+ step
        weights = (np.sqrt(j * (j + 1) - mm * (mm + 1)) / 2.0)[:, None, None]
        lower, upper, sign = blocks[:-1], blocks[1:], 1.0
    else:
        raise ValueError(f"unknown bath channel {channel!r}")
    half = (lower * weights).reshape(-1, m).conj().T @ upper.reshape(-1, m)   # <n|Y|m>
    return half + sign * half.conj().T


def transition_lines(
    eig: EigenSystem, params: ModelParams, channel: str
) -> tuple[np.ndarray, np.ndarray]:
    """Line list of the retained levels: (w[n, m] = w_m - w_n, |<n|X|m>|^2)."""
    w = eig.frequencies
    return w[None, :] - w[:, None], np.abs(coupling_elements(eig, params, channel)) ** 2


@dataclass(frozen=True)
class Liouvillian:
    """Secular generator over the retained eigenlevels, stored as jump rates.

    Every jump |to><from| is rank one between eigenlevels, so the generator
    is exactly a Pauli rate equation on the populations plus an independent
    exponential decay of each coherence; nothing else needs storing.  The
    jumps themselves are the nonzero entries of rates, summed over baths.
    Both blocks are formed once, on first use, and are read-only.
    """

    level_freqs: np.ndarray          # (M,)
    rates: np.ndarray                # (M, M) real, rates[to, from], zero diagonal
    temperature: float

    @property
    def m_levels(self) -> int:
        return len(self.level_freqs)

    @cached_property
    def population_generator(self) -> np.ndarray:
        """W = K - diag(sum_to K): d(p)/dt = W p on the populations (read-only)."""
        gen = self.rates - np.diag(self.rates.sum(axis=0))
        gen.flags.writeable = False
        return gen

    @cached_property
    def coherence_rates(self) -> np.ndarray:
        """lam_ij = -(G_i + G_j)/2 - i(w_i - w_j), with G the total out-rates (read-only)."""
        out = self.rates.sum(axis=0)
        w = self.level_freqs
        lam = -(out[:, None] + out[None, :]) / 2.0 - 1j * (w[:, None] - w[None, :])
        lam.flags.writeable = False
        return lam


def _boltzmann_factors(gap: np.ndarray, downward: np.ndarray, temperature: float) -> np.ndarray:
    """e^{-gap/T} where downward holds and 0 elsewhere; all 0 at T = 0 and past gap/T > 700."""
    if temperature <= 0.0:
        return np.zeros_like(gap)
    x = np.where(downward, gap / temperature, np.inf)
    return np.where(x > 700.0, 0.0, np.exp(-x))


def build_liouvillian(
    eig: EigenSystem,
    params: ModelParams,
    baths: Sequence[BathSpec],
    temperature: float = 0.0,
) -> Liouvillian:
    """Assemble the thermal jump rates on the retained eigenlevels.

    Pairs with |w_mn| < DEGENERACY_TOL omega_c (1e-9) get rate zero.  That
    is an absolute cutoff, not the w -> 0 limit of the rates: J(0) = 0, but
    at T > 0 an ohmic bath's J(w) N_T(w) tends to strength T / ref_freq, so
    a pair just above the cutoff keeps that finite rate and one just below
    loses it (a known defect at unresolved doublets).  Upward and downward
    coefficients are built so their ratio is exactly the Boltzmann factor
    e^{-w/T}.
    """
    if temperature < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    m = len(eig.frequencies)
    if m < 2:
        raise ValueError(f"need at least 2 levels, got {m}")
    rates = np.zeros((m, m))
    lines = [transition_lines(eig, params, b.channel) for b in baths]
    if lines:
        gap = lines[0][0]   # [to, from]: w_from - w_to, the same for every bath
        downward = gap >= DEGENERACY_TOL * params.omega_c
        boltz = _boltzmann_factors(gap, downward, temperature)
        for bath, (_, elem2) in zip(baths, lines):
            down = np.where(downward, bath.spectral_density(gap) * elem2, 0.0) / (1.0 - boltz)
            rates += down + (down * boltz).T
    return Liouvillian(
        level_freqs=eig.frequencies.copy(),
        rates=rates,
        temperature=temperature,
    )


def _symmetrized(lv: Liouvillian) -> tuple[np.ndarray, np.ndarray]:
    """(S, G): the detailed-balance symmetrization of W and the out-rates.

    S_ij = sqrt(k_ij) sqrt(k_ji) off the diagonal and S_ii = -G_i, which has
    the eigenvalues of W when every upward rate is its downward partner
    times the Boltzmann factor.  That factor follows build_liouvillian: it
    is e^{-w/T}, zero at T = 0 and past w/T > 700, and a pair at exactly
    equal frequencies must have equal rates.  Raises ValueError on a pair
    that breaks it by more than BALANCE_RTOL relative (O(M^2)).
    """
    k = lv.rates
    w = lv.level_freqs
    gap = w[None, :] - w[:, None]                 # [to, from]: w_from - w_to
    # equal frequencies: equal rates both ways
    boltz = (gap == 0.0) + _boltzmann_factors(gap, gap > 0.0, lv.temperature)
    expected = k * boltz                          # each downward rate's upward partner
    miss = np.abs(k.T - expected) > BALANCE_RTOL * np.maximum(k.T, expected) + np.finfo(float).tiny
    miss &= gap >= 0.0
    if np.any(miss):
        to, frm = np.argwhere(miss)[0]
        raise ValueError(
            f"rates break detailed balance at T = {lv.temperature}: "
            f"rate {frm} -> {to} is {float(k[to, frm])!r}, its reverse {float(k[frm, to])!r}"
        )
    out = k.sum(axis=0)
    root = np.sqrt(k)
    sym = root * root.T
    np.fill_diagonal(sym, -out)
    return sym, out


def liouvillian_eigenvalues(lv: Liouvillian) -> np.ndarray:
    """Generator eigenvalues sorted by descending Re, then ascending |Im|.

    The spectrum is eig(W) on the populations, taken as eigvalsh of the
    detailed-balance-symmetrized S, plus lam_ij for every coherence i != j.
    Raises ValueError if the rates break detailed balance (see _symmetrized).
    """
    off = ~np.eye(lv.m_levels, dtype=bool)
    vals = np.concatenate(
        [np.linalg.eigvalsh(_symmetrized(lv)[0]), lv.coherence_rates[off]]
    )
    order = np.lexsort((np.abs(vals.imag), -vals.real))
    return vals[order]


def liouvillian_gap(lv: Liouvillian) -> float:
    """Re of the slowest non-stationary eigenvalue (the relaxation gap).

    That is the larger of the second-largest eigenvalue of the symmetrized
    S and the slowest coherence, -(G_(1) + G_(2))/2 from the two smallest
    out-rates; no non-symmetric eigensolve and no M x M coherence block.
    A gap read off S is refused when it lies within GAP_FLOOR eps ||S||_2
    of zero, ||S||_2 being |lowest eigenvalue|: eigvalsh holds no more
    absolute precision than eps ||S||_2, so such a gap has no digit to report.
    Raises ValueError for that and if the rates break detailed balance, and
    RuntimeError if the largest eigenvalue of S is not within
    STATIONARY_TOL M eps ||S||_2 of zero, which would mean the assembly broke
    trace preservation; that tolerance scales with the rates, so rates
    multiplied by any factor c give c times the gap.
    """
    sym, out = _symmetrized(lv)
    pops = np.linalg.eigvalsh(sym)                # ascending
    eps_norm = np.finfo(float).eps * abs(pops[0])
    if abs(pops[-1]) > STATIONARY_TOL * lv.m_levels * eps_norm:
        raise RuntimeError(
            f"no stationary eigenvalue found (largest population eigenvalue {pops[-1]:.2e}, "
            f"{STATIONARY_TOL:g} M eps ||S|| = {STATIONARY_TOL * lv.m_levels * eps_norm:.2e})"
        )
    g1, g2 = np.partition(out, 1)[:2]
    coherence = -(g1 + g2) / 2.0
    floor = GAP_FLOOR * eps_norm
    if pops[-2] >= coherence and abs(pops[-2]) < floor:
        raise ValueError(
            f"gap {pops[-2]:.3e} is below the float64 floor {floor:.3e} "
            f"({GAP_FLOOR:g} eps ||S||) of the population eigensolve"
        )
    return float(max(pops[-2], coherence))


def boltzmann_weights(level_freqs: np.ndarray, temperature: float) -> np.ndarray:
    """Normalized Boltzmann populations; at T = 0 the ground manifold shares them equally."""
    if temperature < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        w = (np.abs(level_freqs - level_freqs[0]) <= 1e-12).astype(float)
    else:
        w = np.exp(-(level_freqs - level_freqs[0]) / temperature)
    return w / w.sum()


@dataclass(frozen=True)
class Trajectory:
    """Populations in the retained eigenbasis on the time grid plus named observables."""

    times: np.ndarray
    populations: np.ndarray          # (n_times, M): the diagonal of rho(t)
    observables: dict[str, np.ndarray] = field(default_factory=dict)


def _populations(w_gen: np.ndarray, p0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """p(t_k) = expm(W dt_k) p(t_(k-1)) from p0 on the grid, as one (T, M) array.

    One expm per distinct step, cast once to the dtype numpy would promote
    the product to: a real p0 stays real, since a complex matrix-vector
    product differs from the real one in the last bits.
    """
    steps, which = np.unique(np.diff(times), return_inverse=True)
    pops = np.empty((len(times), len(p0)), dtype=np.result_type(p0, w_gen))
    propagators = [expm(w_gen * dt).astype(pops.dtype) for dt in steps]
    pops[0] = p0
    for k, i in enumerate(which.tolist(), start=1):
        np.matmul(propagators[i], pops[k - 1], out=pops[k])
    return pops


def evolve(
    lv: Liouvillian,
    rho0: np.ndarray,
    times: np.ndarray,
    observables: dict[str, np.ndarray] | None = None,
) -> Trajectory:
    """Propagate d(rho)/dt = L rho exactly on the given time grid.

    Populations step through expm(W dt) between grid points (W may be
    defective at T = 0, so no eigendecomposition), one expm per distinct
    float step.  An np.linspace grid's steps differ in their last bits, so
    it costs a handful, not one: 9 and 12 for the k = 1 and k = 2
    tunneling runs at g = 3.

    The coherences are never formed.  Each decays as rho_ij(0) exp(lam_ij t),
    and lam_ij = mu_i + conj(mu_j) with mu_i = -G_i/2 - i(w_i - w_0), w_0 the
    lowest retained level, so an observable X reads

        sum_i X_ii p_i(t) + sum_(i != j) conj(a_i(t)) X_ij rho_ji(0) a_j(t),

    with a_i(t) = exp(mu_i t).  That takes one exponential per time and level
    in a pair rho0 occupies (none for a diagonal rho0).  Taken from w_0,
    |mu_i| is at most the retained spectral width plus G_i/2, so the product
    a_i conj(a_j) is within a few eps (|mu_i| + |mu_j|) t of exp(lam_ij t).
    Observables are taken only when asked for.
    """
    m = lv.m_levels
    if rho0.shape != (m, m):
        raise ValueError(f"rho0 shape {rho0.shape} does not match {m} levels")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2 or np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be a strictly ascending 1-D grid")
    for name, op in (observables or {}).items():
        if op.shape != (m, m):
            raise ValueError(f"observable {name!r} shape {op.shape} != ({m}, {m})")
    pops = _populations(lv.population_generator, np.diag(rho0), times)
    obs = {}
    if observables:
        off = (rho0 != 0) & ~np.eye(m, dtype=bool)
        levels = np.flatnonzero(off.any(axis=0) | off.any(axis=1))
        pairs = np.ix_(levels, levels)
        w = lv.level_freqs
        mu = -lv.rates.sum(axis=0)[levels] / 2.0 - 1j * (w[levels] - w.min())
        phases = np.exp(np.multiply.outer(times - times[0], mu))   # a_i(t)
        for name, op in observables.items():
            weights = op[pairs] * rho0[pairs].T                    # X_ij rho_ji(0)
            np.fill_diagonal(weights, 0.0)
            # einsum loops, not matmul: a complex BLAS product wakes its thread pool
            coherent = np.einsum("ti,ti->t", phases.conj(), np.einsum("ij,tj->ti", weights, phases))
            obs[name] = (np.einsum("i,ti->t", np.diag(op), pops) + coherent).real
    return Trajectory(times=times, populations=pops, observables=obs)


def project_pure_state(eig: EigenSystem, psi: np.ndarray) -> tuple[np.ndarray, float]:
    """Project |psi> onto the retained eigenlevels; returns (rho0, lost weight).

    The projected state is renormalized, so rho0 is a valid density matrix.
    The deficit is the weight of |psi> outside the retained levels,
    ||psi - V V^dag psi||^2, formed from that remainder itself so that a
    small deficit keeps its relative precision (no 1 - weight cancellation).
    Weight that |psi> itself lacks, 1 - ||psi||^2, is not part of it.
    """
    coeff = eig.vectors.conj().T @ psi
    weight = float(np.real(coeff.conj() @ coeff))
    if weight <= 0.0:
        raise ValueError("state has no weight on the retained levels")
    rho0 = np.outer(coeff, coeff.conj()) / weight
    remainder = psi - eig.vectors @ coeff
    return rho0, float(np.real(np.vdot(remainder, remainder)))


# ---------------------------------------------------------------------------
# Damped-oscillation fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RabiFit:
    """Frequency/decay estimate for a damped oscillation."""

    omega: float
    decay: float
    n_extrema: int
    n_periods: float


def _spectral_peak(times: np.ndarray, values: np.ndarray) -> float:
    """Dominant angular frequency via Hann-windowed zero-padded FFT.

    The DC lobe is excluded by walking to the first local minimum of the
    magnitude spectrum; the peak is then refined with parabolic
    interpolation on log magnitude.
    """
    dt = times[1] - times[0]
    y = values - np.mean(values)
    n = len(y)
    window = np.hanning(n)
    n_pad = 1 << max(12, int(np.ceil(np.log2(16 * n))))
    spec = np.abs(np.fft.rfft(y * window, n_pad))
    # walk past the residual DC lobe
    k0 = 1
    while k0 + 1 < len(spec) and spec[k0 + 1] < spec[k0]:
        k0 += 1
    if k0 + 1 >= len(spec):
        raise OverdampedSeriesError("spectrum is monotone; no oscillation peak")
    k = k0 + int(np.argmax(spec[k0:]))
    if 0 < k < len(spec) - 1 and spec[k - 1] > 0.0 and spec[k + 1] > 0.0:
        la, lb, lc = np.log(spec[k - 1 : k + 2])
        denom = la - 2.0 * lb + lc
        shift = 0.5 * (la - lc) / denom if denom != 0.0 else 0.0
        k = k + np.clip(shift, -0.5, 0.5)
    return 2.0 * math.pi * k / (n_pad * dt)


def fit_rabi_decay(times: np.ndarray, values: np.ndarray) -> RabiFit:
    """Fit a damped oscillation: frequency from the spectrum, decay from extrema.

    The decay rate comes from a log-linear regression of successive
    maximum-minimum differences, which cancels any constant offset in the
    series.  Series with fewer than three interior extrema are rejected as
    overdamped; fits covering fewer than five periods are rejected as
    underresolved.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) != len(values) or len(times) < 16:
        raise ValueError("need matching arrays with at least 16 samples")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly ascending")
    omega = _spectral_peak(times, values)

    # locate extrema on a lightly smoothed copy (flat valleys otherwise shed
    # spurious micro-turns), then refine each on the raw samples
    dt = float(np.median(np.diff(times)))
    half = max(1, int(round(2.0 * math.pi / omega / (16.0 * dt))))
    kernel = np.ones(2 * half + 1) / (2 * half + 1)
    smooth = np.convolve(values, kernel, mode="same")
    dv = np.diff(smooth[half:-half] if half else smooth)
    sign = np.sign(dv)
    sign[sign == 0.0] = 1.0
    rough = np.nonzero(np.diff(sign))[0] + 1 + half
    turns = []
    for i in rough:
        lo, hi = max(0, i - 2 * half), min(len(values), i + 2 * half + 1)
        seg = values[lo:hi]
        j = lo + (int(np.argmax(seg)) if dv[min(i - half - 1, len(dv) - 1)] > 0 else int(np.argmin(seg)))
        if not turns or j - turns[-1] > half:
            turns.append(j)
    turns = np.asarray(turns, dtype=int)
    if len(turns) < 3:
        raise OverdampedSeriesError(
            f"only {len(turns)} extrema found; cannot separate decay from drift"
        )
    ext_t = times[turns]
    ext_v = values[turns]
    swings = np.abs(np.diff(ext_v))
    mid_t = (ext_t[1:] + ext_t[:-1]) / 2.0
    good = swings > 0.0
    if np.count_nonzero(good) < 2:
        raise OverdampedSeriesError("extrema swings vanish; nothing to regress")
    slope, _ = np.polyfit(mid_t[good], np.log(swings[good]), 1)
    decay = -float(slope)
    n_periods = (times[-1] - times[0]) * omega / (2.0 * math.pi)
    if n_periods < 5.0:
        raise ValueError(f"series covers only {n_periods:.2f} oscillation periods (need >= 5)")
    return RabiFit(omega=float(omega), decay=decay, n_extrema=len(turns), n_periods=float(n_periods))
