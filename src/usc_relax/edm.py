"""Cavity-mediated relaxation of a multi-well dipole after adiabatic elimination.

In the strong-cavity-dissipation limit (cavity linewidth gamma large against
the k-resonance splitting) the cavity can be integrated out, leaving a
dipole-only master equation with a cooling dissipator at rate Gamma_T(epsilon)
and a heating dissipator at rate Gamma_T(-epsilon).  The rate function is a
Poisson double ladder over q-photon emission and r-photon absorption,

    Gamma_T(w) = (omega_d^2 n_wells / gamma) exp[-x^2 (1 + 2 nbar)]
                 * sum_{(q,r) != (0,0)} [x^{2r} nbar^r / r!]
                                        [x^{2q} (1+nbar)^q / q!]
                 * (gamma^2/4) / ((w - omega_c (q-r))^2 + gamma^2/4),

with x = g/omega_c and nbar the cavity thermal occupation at omega_c.  Only
the simultaneous q = r = 0 term is excluded: it is the static component that
the subtracted mean displacement removes, and dropping all q = 0 or r = 0
terms would kill the zero-temperature emission ladder entirely.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lindblad import Liouvillian, Trajectory, evolve, thermal_occupation
from . import grwa
from .operators import ModelParams

TAIL_TOL = 1e-8
AUTO_TAIL = 1e-10


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
    sum_cutoff: int | None = None    # None: auto from the Poisson tail bound
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


def _ladder_weights(base: float, cutoff: int) -> np.ndarray:
    """w_q = base^q / q! for q = 0..cutoff, evaluated in log space."""
    q = np.arange(cutoff + 1)
    if base == 0.0:
        w = np.zeros(cutoff + 1)
        w[0] = 1.0
        return w
    return np.exp(q * math.log(base) - np.array([math.lgamma(k + 1) for k in q]))


def _tail_bound(base: float, cutoff: int) -> float:
    """Geometric bound on sum_{q > cutoff} base^q / q!."""
    if base == 0.0:
        return 0.0
    t_next = math.exp((cutoff + 1) * math.log(base) - math.lgamma(cutoff + 2))
    ratio = base / (cutoff + 2)
    if ratio >= 1.0:
        return math.inf
    return t_next / (1.0 - ratio)


def resolve_cutoff(p: EdmParams) -> int:
    """Cutoff for the (q, r) double sum, validated against the Poisson tail.

    Auto mode grows the cutoff until the next emission-ladder term falls
    below AUTO_TAIL of the largest one; an explicit cutoff is rejected when
    the neglected tail could exceed TAIL_TOL of the retained sum.
    """
    base_q = p.x**2 * (1.0 + p.nbar)
    base_r = p.x**2 * p.nbar
    if p.sum_cutoff is None:
        cutoff = 1
        peak = 1.0
        while True:
            term = math.exp(cutoff * math.log(base_q) - math.lgamma(cutoff + 1)) if base_q else 0.0
            peak = max(peak, term)
            if cutoff > base_q and term < AUTO_TAIL * peak:
                return cutoff
            cutoff += 1
            if cutoff > 400:
                raise RuntimeError("cutoff search did not terminate; check parameters")
    retained = _ladder_weights(base_q, p.sum_cutoff).sum()
    tail = _tail_bound(base_q, p.sum_cutoff) + _tail_bound(base_r, p.sum_cutoff)
    if tail > TAIL_TOL * retained:
        raise ValueError(
            f"sum_cutoff={p.sum_cutoff} leaves a relative tail ~{tail / retained:.2e} "
            f"(> {TAIL_TOL:.0e}); raise the cutoff"
        )
    return p.sum_cutoff


@lru_cache(maxsize=16)
def _rate_terms(p: EdmParams) -> tuple[np.ndarray, np.ndarray, float]:
    """The omega-independent parts of gamma_T: (q, r) weights, q - r shifts, prefactor."""
    cutoff = resolve_cutoff(p)
    x2 = p.x**2
    nbar = p.nbar
    wq = _ladder_weights(x2 * (1.0 + nbar), cutoff)
    wr = _ladder_weights(x2 * nbar, cutoff)
    q = np.arange(cutoff + 1)
    shifts = p.omega_c * (q[:, None] - q[None, :])   # (q, r) grid
    weights = wq[:, None] * wr[None, :]
    weights[0, 0] = 0.0
    prefactor = (p.omega_d**2 * p.n_wells / p.gamma) * math.exp(-x2 * (1.0 + 2.0 * nbar))
    for a in (shifts, weights):
        a.flags.writeable = False
    return weights, shifts, prefactor


def gamma_T(omega: float, p: EdmParams) -> float:
    """Photon-ladder relaxation rate at probe frequency omega.

    Positive omega near k*omega_c probes k-photon emission (cooling when
    omega = epsilon); the mirrored argument gives the heating rate.
    """
    weights, shifts, prefactor = _rate_terms(p)
    delta = omega - shifts
    lor = (p.gamma**2 / 4.0) / (delta**2 + p.gamma**2 / 4.0)
    return float(prefactor * (weights * lor).sum())


def total_rate(p: EdmParams) -> float:
    """Net cooling rate Gamma_T(epsilon) - Gamma_T(-epsilon) (sign preserved)."""
    return gamma_T(p.epsilon, p) - gamma_T(-p.epsilon, p)


def saturation_number(p: EdmParams) -> float:
    """Stationary excitation number Gamma_heat / (Gamma_cool - Gamma_heat).

    Near a k-resonance epsilon = k*omega_c this approaches the thermal
    occupation at k*omega_c; validity_report carries that reference value.
    """
    cool = gamma_T(p.epsilon, p)
    heat = gamma_T(-p.epsilon, p)
    net = cool - heat
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
    k = max(1, round(p.epsilon / p.omega_c))
    model = ModelParams(omega_c=p.omega_c, omega_d=p.omega_d, g=p.g, n_fock=max(40, 4 * k))
    splitting = abs(grwa.rabi_frequency(k, k, model))
    messages = []
    adiabatic_ok = p.gamma >= splitting
    if not adiabatic_ok:
        messages.append(
            f"gamma={p.gamma:.3g} below the k={k} splitting {splitting:.3g}: "
            "adiabatic elimination of the cavity is not justified"
        )
    usc_ok = p.x >= 1.0
    if not usc_ok:
        messages.append(
            f"g/omega_c={p.x:.3g} < 1: bare tunneling is not suppressed and the "
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
        baths=(),
    )
    rho0 = np.zeros((p.n_boson, p.n_boson), dtype=complex)
    rho0[m0, m0] = 1.0
    traj = evolve(lv, rho0, times, observables={"excitation": np.diag(n).astype(complex)})
    top = float(np.max(traj.states[:, p.n_boson - 1, p.n_boson - 1].real))
    if top > 1e-6:
        warnings.warn(
            f"top-rung population reached {top:.2e}; raise n_boson",
            TruncationLeakWarning,
            stacklevel=2,
        )
    return traj
