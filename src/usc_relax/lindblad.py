"""Thermalizing secular master equation in the system eigenbasis.

The dissipators act between exact eigenlevels |n>, |m> with jump operators
|n><m| and golden-rule rates J(|w_mn|) |<n|X|m>|^2, where X is the bath
coupling operator (photon quadrature a - a^dag for the cavity channel, s_x
for the dipole).  Downward terms are weighted by (1 + N_T), upward by N_T,
which makes the Gibbs state of the retained levels exactly stationary.
transition_lines() is that line list (w_mn, |<n|X|m>|^2); the response
spectra read the same list and the same Boltzmann weights.

Because every jump is rank one between eigenlevels, the generator is exactly
a Pauli rate matrix W on the populations plus an independent exponential
decay of each coherence (Breuer & Petruccione, The Theory of Open Quantum
Systems).  The gap, the steady state and the time evolution all come from
those two M x M blocks, so the cost scales as m_levels^3.

Truncation is two-tier: the Hamiltonian is built at full n_fock, but only
its lowest m_levels eigenlevels are solved for and kept for the master
equation.  Inside an exactly degenerate subspace the basis depends on the
solver, and so do the single matrix elements that touch it; sums over the
subspace do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .eigen import EigenSystem
from .operators import ModelParams, OperatorMatrix, fock_ladder, spin_operators

DEGENERACY_TOL = 1e-9      # |w_mn|/omega_c treated as an exact degeneracy
STATIONARY_TOL = 1e-9      # |eigenvalue| identifying the steady-state mode


class DegenerateSteadyStateError(RuntimeError):
    """The Liouvillian kernel is more than one-dimensional."""


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


def dipole_bath(kappa: float, omega_d: float = 1.0, ohmic: bool = False) -> BathSpec:
    """Radiative dipole bath, J = kappa (w/omega_d)^3 (or Ohmic variant)."""
    law = "ohmic" if ohmic else "radiative"
    return BathSpec(channel="dipole", law=law, strength=kappa, ref_freq=omega_d)


@lru_cache(maxsize=8)
def _coupling_operator(n_fock: int, spin_n: int, channel: str) -> OperatorMatrix:
    """Read-only real coupling operator; it depends on the truncation alone."""
    if channel == "cavity":
        a, ad = fock_ladder(n_fock)
        mat = np.kron(np.eye(spin_n + 1), a.entries - ad.entries)
        label = "a-a_dag"
    else:
        sx = spin_operators(spin_n)[0].entries.real
        mat = np.kron(sx, np.eye(n_fock))
        label = "S_x"
    mat.flags.writeable = False
    return OperatorMatrix(dim=mat.shape[0], entries=mat, label=label)


def coupling_matrix(params: ModelParams, channel: str) -> OperatorMatrix:
    """Bare bath coupling operator on the product space, real and read-only.

    Cavity couples through the quadrature (a - a^dag) (anti-Hermitian; only
    |elements|^2 enter rates), dipole through S_x.  Both commute with the
    polaron transform, so the same operators serve in either frame.  One
    cached copy per truncation is shared by every caller.
    """
    if channel not in ("cavity", "dipole"):
        raise ValueError(f"unknown bath channel {channel!r}")
    return _coupling_operator(params.n_fock, params.spin_n, channel)


def transition_lines(
    eig: EigenSystem, op: OperatorMatrix, m_levels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Line list of the m_levels lowest levels: (w[n, m] = w_m - w_n, |<n|X|m>|^2)."""
    if op.dim != eig.dim:
        raise ValueError(f"operator dim {op.dim} != eigensystem dim {eig.dim}")
    w, v = eig.lowest(m_levels)
    return w[None, :] - w[:, None], np.abs(v.conj().T @ op.entries @ v) ** 2


def transition_rates(
    eig: EigenSystem, op: OperatorMatrix, bath: BathSpec, m_levels: int
) -> np.ndarray:
    """Base golden-rule rates G[n, m] = J(|w_mn|) |<n|X|m>|^2, zero diagonal.

    Symmetric in (n, m); thermal (1 + N_T) / N_T weights are applied by the
    Liouvillian assembly, not here.
    """
    if m_levels < 2:
        raise ValueError(f"need at least 2 levels, got {m_levels}")
    omega, elem2 = transition_lines(eig, op, m_levels)
    rates = bath.spectral_density(omega) * elem2
    np.fill_diagonal(rates, 0.0)
    return rates


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
    baths: tuple[BathSpec, ...]

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

    @property
    def matrix(self) -> np.ndarray:
        """Dense (M^2, M^2) superoperator (row-major vec), built on demand."""
        m = self.m_levels
        lsup = np.diag(self.coherence_rates.reshape(-1))
        pops = np.arange(m) * (m + 1)
        lsup[np.ix_(pops, pops)] += self.rates
        return lsup


def build_liouvillian(
    eig: EigenSystem,
    params: ModelParams,
    baths: Sequence[BathSpec],
    temperature: float = 0.0,
    m_levels: int = 24,
) -> Liouvillian:
    """Assemble the thermal jump rates on the m_levels lowest eigenlevels.

    Exactly degenerate pairs (|w_mn| < 1e-9 omega_c) get rate zero, which is
    also what J(0) = 0 dictates.  Upward and downward coefficients are built
    so their ratio is exactly the Boltzmann factor e^{-w/T}.
    """
    if temperature < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if m_levels < 2:
        raise ValueError(f"need at least 2 levels, got {m_levels}")
    w = eig.lowest(m_levels)[0].copy()
    rates = np.zeros((m_levels, m_levels))
    lines = [transition_lines(eig, coupling_matrix(params, b.channel), m_levels) for b in baths]
    if lines:
        gap = lines[0][0]   # [to, from]: w_from - w_to, the same for every bath
        downward = gap >= DEGENERACY_TOL * params.omega_c
        boltz = np.zeros_like(gap)
        if temperature > 0.0:
            x = np.where(downward, gap / temperature, np.inf)
            boltz = np.where(x > 700.0, 0.0, np.exp(-x))
        for bath, (_, elem2) in zip(baths, lines):
            down = np.where(downward, bath.spectral_density(gap) * elem2, 0.0) / (1.0 - boltz)
            rates += down + (down * boltz).T
    return Liouvillian(
        level_freqs=w, rates=rates, temperature=temperature, baths=tuple(baths)
    )


def liouvillian_eigenvalues(lv: Liouvillian) -> np.ndarray:
    """Generator eigenvalues sorted by descending Re, then ascending |Im|.

    The spectrum is eig(W) on the populations plus lam_ij for every
    coherence i != j.
    """
    off = ~np.eye(lv.m_levels, dtype=bool)
    vals = np.concatenate(
        [np.linalg.eigvals(lv.population_generator), lv.coherence_rates[off]]
    )
    order = np.lexsort((np.abs(vals.imag), -vals.real))
    return vals[order]


def liouvillian_gap(lv: Liouvillian) -> float:
    """Re of the slowest non-stationary eigenvalue (the relaxation gap).

    Raises if no eigenvalue sits within 1e-9 of zero, which would mean the
    assembly broke trace preservation.
    """
    vals = liouvillian_eigenvalues(lv)
    if np.min(np.abs(vals)) > STATIONARY_TOL:
        raise RuntimeError(
            f"no stationary eigenvalue found (closest |lambda| = {np.min(np.abs(vals)):.2e})"
        )
    zero_idx = int(np.argmin(np.abs(vals)))
    rest = np.delete(vals, zero_idx)
    return float(rest[0].real)


def boltzmann_weights(level_freqs: np.ndarray, temperature: float) -> np.ndarray:
    """Normalized Boltzmann populations; at T = 0 the ground manifold shares them equally."""
    if temperature < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        w = (np.abs(level_freqs - level_freqs[0]) <= 1e-12).astype(float)
    else:
        w = np.exp(-(level_freqs - level_freqs[0]) / temperature)
    return w / w.sum()


def gibbs_state(level_freqs: np.ndarray, temperature: float) -> np.ndarray:
    """Thermal density matrix on the retained levels (T = 0: ground projector)."""
    return np.diag(boltzmann_weights(level_freqs, temperature)).astype(complex)


def _closed_class_count(rates: np.ndarray) -> int:
    """Number of closed communicating classes of the jump graph rates[to, from].

    Each closed class carries one stationary population vector, so this is
    the dimension of the population kernel.  Weak connectivity is not
    enough: two absorbing levels fed from a common parent form one
    connected graph with two closed classes.
    """
    m = len(rates)
    reach = (rates.T > 0.0) | np.eye(m, dtype=bool)   # reach[i, j]: i -> j
    for _ in range(m.bit_length()):                     # paths up to length 2^k
        reach = reach @ reach
    closed = np.all(reach <= reach.T, axis=1)          # everything reached returns
    return len(np.unique(reach[closed], axis=0))


def steady_state(lv: Liouvillian) -> np.ndarray:
    """The Gibbs state, once the rate graph shows it is the only stationary one.

    build_liouvillian makes upward and downward rates obey detailed balance,
    so the Gibbs state is stationary by construction; it is unique iff the
    jump graph has exactly one closed communicating class.  A
    multi-dimensional kernel is reported, never averaged over.
    """
    n_closed = _closed_class_count(lv.rates)
    if n_closed != 1:
        raise DegenerateSteadyStateError(
            f"Liouvillian kernel dimension {n_closed}; steady state not unique"
        )
    return gibbs_state(lv.level_freqs, lv.temperature)


@dataclass(frozen=True)
class Trajectory:
    """Time-evolved states in the retained eigenbasis plus named observables."""

    times: np.ndarray
    states: np.ndarray               # (n_times, M, M)
    observables: dict[str, np.ndarray] = field(default_factory=dict)
    projection_deficit: float = 0.0  # initial-state weight lost to truncation

    def trace_drift(self) -> float:
        return float(np.max(np.abs(np.einsum("tii->t", self.states).real - 1.0)))

    def min_eigenvalue(self) -> float:
        return float(min(np.linalg.eigvalsh(s)[0] for s in self.states))


def evolve(
    lv: Liouvillian,
    rho0: np.ndarray,
    times: np.ndarray,
    observables: dict[str, np.ndarray] | None = None,
    projection_deficit: float = 0.0,
) -> Trajectory:
    """Propagate d(rho)/dt = L rho exactly on the given time grid.

    Populations step through expm(W dt) between grid points (W may be
    defective at T = 0, so no eigendecomposition), one expm per distinct
    step, so a uniform grid costs one; each coherence is
    rho_ij(0) exp(lam_ij t).
    """
    m = lv.m_levels
    if rho0.shape != (m, m):
        raise ValueError(f"rho0 shape {rho0.shape} does not match {m} levels")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2 or np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be a strictly ascending 1-D grid")
    elapsed = (times - times[0])[:, None, None]
    states = rho0 * np.exp(lv.coherence_rates * elapsed)
    w_gen = lv.population_generator
    steps, which = np.unique(np.diff(times), return_inverse=True)
    propagators = [expm(w_gen * dt) for dt in steps]
    pops = np.diag(rho0)
    diag = np.arange(m)
    for k, i in enumerate(which.tolist(), start=1):
        pops = propagators[i] @ pops
        states[k, diag, diag] = pops
    obs = {}
    if observables:
        for name, op in observables.items():
            if op.shape != (m, m):
                raise ValueError(f"observable {name!r} shape {op.shape} != ({m}, {m})")
            obs[name] = np.einsum("ij,tji->t", op, states).real
    return Trajectory(
        times=times, states=states, observables=obs, projection_deficit=projection_deficit
    )


def project_pure_state(eig: EigenSystem, psi: np.ndarray, m_levels: int) -> tuple[np.ndarray, float]:
    """Project |psi> onto the retained eigenlevels; returns (rho0, lost weight).

    The projected state is renormalized, so rho0 is a valid density matrix;
    the deficit quantifies how much of |psi> the truncation discarded.  It
    is formed as 1 - weight, so it is good only to ~1e-15 absolute: a
    deficit of 1e-5 carries ~1e-10 relative rounding.
    """
    coeff = eig.lowest(m_levels)[1].conj().T @ psi
    weight = float(np.real(coeff.conj() @ coeff))
    if weight <= 0.0:
        raise ValueError("state has no weight on the retained levels")
    rho0 = np.outer(coeff, coeff.conj()) / weight
    return rho0, 1.0 - weight


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
