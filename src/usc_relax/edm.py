"""Cavity-mediated relaxation of a multi-well dipole after adiabatic elimination.

In the strong-cavity-dissipation limit (cavity linewidth gamma large against
the k-resonance splitting) the cavity can be integrated out, leaving a
dipole-only master equation with a cooling dissipator at rate Gamma_T(epsilon)
and a heating dissipator at rate Gamma_T(-epsilon).  The rate function is a
comb of Lorentzians at the net photon numbers d = q - r of q-photon emission
and r-photon absorption,

    Gamma_T(w) = Gamma_d exp[-x^2 (1 + 2 nbar)]
                 * sum_d W_d (gamma^2/4) / ((w - d omega_c)^2 + gamma^2/4),

    W_d = sum_{q - r = d, (q,r) != (0,0)} w_q(x^2 (1+nbar)) w_r(x^2 nbar),
    w_q(b) = b^q / q!,

with Gamma_d = omega_d^2 n_wells / gamma the free-dipole scale, x = g/omega_c
and nbar the cavity thermal occupation at omega_c.  Only the simultaneous
q = r = 0 term is excluded: it is the static component that the subtracted
mean displacement removes, and dropping all q = 0 or r = 0 terms would kill
the zero-temperature emission ladder entirely.

The net rate Gamma_T(w) - Gamma_T(-w) is summed over the same comb with
each sideband's two Lorentzians combined (net_rate), so it keeps its digits
near w = 0, where the two rates nearly cancel.

One cutoff rule truncates both Poisson ladders: q, r <= the first rung past
the emission ladder's mean x^2 (1 + nbar) whose weight falls below AUTO_TAIL
of that ladder's largest weight (resolve_cutoff).  The absorption ladder has
the smaller base, so its neglected tail is smaller still.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .lindblad import Liouvillian, Trajectory, evolve, thermal_occupation
from . import grwa
from .operators import ModelParams

AUTO_TAIL = 1e-10
MAX_CUTOFF = 400


class NoNetCoolingError(RuntimeError):
    """Heating rate meets or exceeds cooling: no stationary excitation number."""


class TruncationLeakWarning(UserWarning):
    """Population reached the top of the boson ladder during evolution."""


@dataclass(frozen=True)
class EdmParams:
    """Parameters of the adiabatically eliminated multi-well dipole model."""

    omega_c: float = 1.0
    omega_d: float = 1.0
    g: float = 1.0
    epsilon: float = 1.0
    n_wells: int = 1
    gamma: float = 0.1
    temperature: float = 0.0
    n_boson: int = 12

    def __post_init__(self) -> None:
        if self.omega_c <= 0.0 or self.omega_d <= 0.0:
            raise ValueError("omega_c and omega_d must be positive")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.g < 0.0 or self.temperature < 0.0:
            raise ValueError("g and temperature must be >= 0")
        if self.n_wells < 1 or self.n_boson < 2:
            raise ValueError("need n_wells >= 1 and n_boson >= 2")

    @property
    def x(self) -> float:
        return self.g / self.omega_c

    @property
    def nbar(self) -> float:
        return thermal_occupation(self.omega_c, self.temperature)

    @property
    def gamma_d(self) -> float:
        """Free-dipole emission scale omega_d^2 n_wells / gamma."""
        return self.omega_d**2 * self.n_wells / self.gamma


def _ladder_weights(base: float, cutoff: int) -> np.ndarray:
    """w_q = base^q / q! for q = 0..cutoff, as one cumulative product."""
    factors = np.empty(cutoff + 1)
    factors[0] = 1.0
    factors[1:] = base / np.arange(1, cutoff + 1)
    return np.cumprod(factors)


def resolve_cutoff(p: EdmParams) -> int:
    """Cutoff of both Poisson ladders in the rate.

    The first rung q above the emission ladder's mean x^2 (1 + nbar) whose
    weight falls below AUTO_TAIL of the ladder's largest weight (which sits
    at q <= x^2 (1 + nbar), since w_q / w_(q-1) = x^2 (1 + nbar) / q).
    """
    base = p.x**2 * (1.0 + p.nbar)
    if base < MAX_CUTOFF:
        w = _ladder_weights(base, MAX_CUTOFF)
        stop = (np.arange(MAX_CUTOFF + 1) > base) & (w < AUTO_TAIL * w.max())
        if stop.any():
            return int(np.argmax(stop))
    raise RuntimeError("cutoff search did not terminate; check parameters")


def _sidebands(p: EdmParams) -> tuple[np.ndarray, np.ndarray]:
    """The comb's net photon numbers d = -cutoff..cutoff and their weights W_d.

    W_d sums w_q w_r over q - r = d; the d = 0 weight leaves out q = r = 0.
    """
    cutoff = resolve_cutoff(p)
    x2 = p.x**2
    wq = _ladder_weights(x2 * (1.0 + p.nbar), cutoff)
    wr = _ladder_weights(x2 * p.nbar, cutoff)
    weights = np.convolve(wq, wr[::-1])   # index cutoff + d
    weights[cutoff] = wq[1:] @ wr[1:]
    return np.arange(-cutoff, cutoff + 1), weights


def gamma_T(omega: float | np.ndarray, p: EdmParams) -> float | np.ndarray:
    """Photon-ladder relaxation rate at probe frequency omega (elementwise).

    Positive omega near k*omega_c probes k-photon emission (cooling when
    omega = epsilon); the mirrored argument gives the heating rate.  A scalar
    omega returns a float, an array the rates at its entries, each equal bit
    for bit to its own scalar call.
    """
    d, weights = _sidebands(p)
    half_width2 = p.gamma**2 / 4.0
    # one row of sideband detunings per omega
    lor = np.asarray(omega, dtype=float)[..., None] - p.omega_c * d
    np.square(lor, out=lor)
    lor += half_width2
    np.divide(half_width2, lor, out=lor)
    lor *= weights
    prefactor = p.gamma_d * math.exp(-p.x**2 * (1.0 + 2.0 * p.nbar))
    rates = prefactor * lor.sum(axis=-1)
    return float(rates) if rates.ndim == 0 else rates


def net_rate(omega: float | np.ndarray, p: EdmParams) -> float | np.ndarray:
    """Gamma_T(omega) - Gamma_T(-omega) as one comb sum (elementwise).

    The two Lorentzians of sideband d combine into one term,

        W_d h 4 omega d omega_c / (((omega - d omega_c)^2 + h)
                                   ((omega + d omega_c)^2 + h)),   h = gamma^2/4,

    so the net rate is never the difference of two nearly equal rates: near
    omega = 0 that difference kept only a few digits (3.9e-10 relative error
    at omega = 1e-4, T = 2, x = 1; this sum is within 2e-15 of a 50-digit
    one).  It is exactly odd in omega.  Scalars and arrays as in gamma_T.
    """
    d, weights = _sidebands(p)
    half_width2 = p.gamma**2 / 4.0
    omega = np.asarray(omega, dtype=float)[..., None]
    shift = p.omega_c * d
    den = omega - shift
    np.square(den, out=den)
    den += half_width2
    above = omega + shift
    np.square(above, out=above)
    above += half_width2
    den *= above
    np.divide(4.0 * half_width2 * shift * weights, den, out=den)
    den *= omega
    prefactor = p.gamma_d * math.exp(-p.x**2 * (1.0 + 2.0 * p.nbar))
    rates = prefactor * den.sum(axis=-1)
    return float(rates) if rates.ndim == 0 else rates


def total_rate(p: EdmParams) -> float:
    """Net cooling rate Gamma_T(epsilon) - Gamma_T(-epsilon) (sign preserved)."""
    return net_rate(p.epsilon, p)


def saturation_number(p: EdmParams) -> float:
    """Stationary excitation number Gamma_heat / (Gamma_cool - Gamma_heat).

    Near a k-resonance epsilon = k*omega_c this approaches the thermal
    occupation at k*omega_c; validity_report carries that reference value.
    """
    cool = gamma_T(p.epsilon, p)
    heat = gamma_T(-p.epsilon, p)
    net = total_rate(p)
    if net <= 0.0:
        raise NoNetCoolingError(
            f"heating rate {heat:.3e} >= cooling rate {cool:.3e}: no net relaxation"
        )
    return heat / net


@dataclass(frozen=True)
class EdmValidity:
    """Regime checks for the adiabatic elimination behind the rate formula."""

    adiabatic_ok: bool       # gamma above the k-resonance splitting
    usc_ok: bool             # coupling deep enough to suppress bare tunneling
    k: int
    splitting: float         # Omega_(k,k) at the nearest resonance
    thermal_reference: float  # cavity-ladder occupation at k*omega_c
    messages: tuple[str, ...]


def validity_report(p: EdmParams) -> EdmValidity:
    """The regime checks at epsilon's nearest resonance, grwa.nearest_resonance."""
    k = grwa.nearest_resonance(p.epsilon, p.omega_c)
    model = ModelParams(omega_c=p.omega_c, omega_d=p.omega_d, g=p.g)
    splitting = abs(grwa.rabi_frequency(k, k, model))
    messages = []
    adiabatic_ok = p.gamma >= splitting
    if not adiabatic_ok:
        messages.append(
            f"gamma={p.gamma!r} below the k={k} splitting {float(splitting)!r}: "
            "adiabatic elimination of the cavity is not justified"
        )
    usc_ok = p.x >= 1.0
    if not usc_ok:
        messages.append(
            f"g/omega_c={p.x!r} < 1: bare tunneling is not suppressed and the "
            "dipole-only rate picture degrades"
        )
    return EdmValidity(
        adiabatic_ok=adiabatic_ok,
        usc_ok=usc_ok,
        k=k,
        splitting=splitting,
        thermal_reference=thermal_occupation(k * p.omega_c, p.temperature),
        messages=tuple(messages),
    )


def effective_dipole_evolve(p: EdmParams, m0: int, times: np.ndarray) -> Trajectory:
    """Evolve the dipole ladder from the m0-excitation state |m0><m0|.

    The generator is H = epsilon b^dag b with a cooling dissipator b at
    Gamma_T(epsilon) and a heating dissipator b^dag at Gamma_T(-epsilon).
    Both the initial state and b^dag b are diagonal, so only populations
    move: the ladder is a birth-death chain with rates cool*n down from rung
    n and heat*(n+1) up from it, propagated by the same evolve as the full
    master equation.  The trajectory carries the excitation number under the
    key "excitation"; population reaching the top rung is surfaced as a
    warning.
    """
    if not 0 <= m0 < p.n_boson:
        raise ValueError(f"m0={m0} outside the boson ladder of size {p.n_boson}")
    n = np.arange(p.n_boson, dtype=float)
    cool = gamma_T(p.epsilon, p)
    heat = gamma_T(-p.epsilon, p)
    lv = Liouvillian(
        level_freqs=p.epsilon * n,
        rates=np.diag(cool * n[1:], k=1) + np.diag(heat * n[1:], k=-1),
        temperature=p.temperature,
    )
    rho0 = np.zeros((p.n_boson, p.n_boson), dtype=complex)
    rho0[m0, m0] = 1.0
    traj = evolve(lv, rho0, times, observables={"excitation": np.diag(n).astype(complex)})
    top = float(np.max(traj.populations[:, -1].real))
    if top > 1e-6:
        warnings.warn(
            f"top-rung population reached {top:.2e}; raise n_boson",
            TruncationLeakWarning,
            stacklevel=2,
        )
    return traj
