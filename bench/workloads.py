"""The four benchmark workloads as seeded lists of CLI invocations.

A workload is one *pass*: a fixed list of `usc-relax` invocations, each run
in a fresh interpreter.  The seed only jitters inputs, never point counts:

* every grid endpoint moves inward by at most 10% of its grid step, and a
  symmetric grid moves both ends by the same amount, so it stays symmetric
  (the weak transmission map keeps epsilon = 0, the rate comb keeps +-omega
  pairs, the strong map keeps both crossings at |epsilon| = 1);
* every coupling g moves down by at most 0.1%, which keeps each explicit
  Fock cutoff at or above `default_n_fock(g)` and keeps each input in the
  range where the correctness gate's checks apply;
* the double-well tilts are not jittered.

`ops` is the number of operations an invocation contributes to
`failed_frac`: one gap point, one evolve run, one response column, one
spectrum g-point, one rate comb, one ladder run or one `tla` call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NAMES = ("gap_map", "tunneling", "spectra", "cascade")

ENDPOINT_JITTER = 0.1   # share of one grid step
COUPLING_JITTER = 1e-3  # relative, downward only


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a pass: its name, its argv (minus --output) and its op count."""

    name: str
    argv: tuple[str, ...]
    ops: int
    params: dict


def _num(x: float) -> str:
    return repr(float(x))


def _sets(*assignments: str) -> tuple[str, ...]:
    out: list[str] = []
    for a in assignments:
        out += ["--set", a]
    return tuple(out)


class _Jitter:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def grid(self, start: float, stop: float, points: int) -> tuple[float, float]:
        step = (stop - start) / (points - 1)
        return (start + ENDPOINT_JITTER * step * self.rng.random(),
                stop - ENDPOINT_JITTER * step * self.rng.random())

    def symmetric(self, half_width: float, points: int) -> float:
        step = 2.0 * half_width / (points - 1)
        return half_width - ENDPOINT_JITTER * step * self.rng.random()

    def coupling(self, g: float) -> float:
        return g * (1.0 - COUPLING_JITTER * self.rng.random())


def _gap_map(j: _Jitter, points: int = 20) -> list[Invocation]:
    g0, g1 = j.grid(0.5, 3.5, points)
    e0, e1 = j.grid(0.0, 3.0, points)
    p = dict(g=(g0, g1, points), epsilon=(e0, e1, points), n_fock=89, temperature=0.1, m_levels=24)
    argv = ("gap-scan",) + _sets(
        f"scan = g, {_num(g0)}, {_num(g1)}, {points}",
        f"scan = epsilon, {_num(e0)}, {_num(e1)}, {points}",
        "bath = cavity, ohmic, 0.05, 1.0",
        "bath = dipole, radiative, 0.2, 1.0, 3.0",
        "temperature = 0.1",
        "m_levels = 24",
        "model.n_fock = 89",    # default_n_fock(3.5), set explicitly
    )
    return [Invocation("gap_map", argv, points * points, p)]


def _tunneling(j: _Jitter) -> list[Invocation]:
    g = j.coupling(3.0)
    out = []
    for k in (1, 2):
        argv = ("evolve",) + _sets(f"model.g = {_num(g)}", f"evolve.k = {k}")
        out.append(Invocation(f"evolve_k{k}", argv, 1, dict(g=g, k=k, gamma=0.002, m_levels=20)))
    return out


def _transmission(j: _Jitter, name, g, eps_max, w_min, w_max) -> Invocation:
    g = j.coupling(g)
    e = j.symmetric(eps_max, 41)
    w0, w1 = j.grid(w_min, w_max, 801)
    argv = ("transmission",) + _sets(
        f"model.g = {_num(g)}",
        "model.n_fock = auto",
        f"scan = epsilon, {_num(-e)}, {_num(e)}, 41",
        f"response.omega_min = {_num(w0)}",
        f"response.omega_max = {_num(w1)}",
        "response.omega_points = 801",
        "response.q_factor = 100.0",
        "temperature = 0.2",
    )
    return Invocation(name, argv, 41, dict(g=g))


def _spectra(j: _Jitter) -> list[Invocation]:
    # defaults of scripts/transmission_map.py, dipole_response_map.py, spectrum_vs_g.py
    weak = _transmission(j, "transmission_weak", 0.1, 0.5, 0.80, 1.20)
    strong = _transmission(j, "transmission_strong", 2.5, 1.5, 0.30, 1.70)
    g = j.coupling(2.5)
    e = j.symmetric(1.5, 31)
    w0, w1 = j.grid(0.05, 1.70, 661)
    dipole = Invocation("dipole_response", ("dipole-response",) + _sets(
        f"model.g = {_num(g)}",
        "model.n_fock = auto",
        f"scan = epsilon, {_num(-e)}, {_num(e)}, 31",
        f"response.omega_min = {_num(w0)}",
        f"response.omega_max = {_num(w1)}",
        "response.omega_points = 661",
        "response.eta = 0.0",
        "temperature = 0.2",
    ), 31, {})
    g0, g1 = j.grid(0.5, 4.0, 36)
    spectrum = Invocation("spectrum", ("spectrum",) + _sets(
        f"scan = g, {_num(g0)}, {_num(g1)}, 36",
        "model.epsilon = 0.0",
        "model.n_fock = 96",
    ), 36, dict(g=(g0, g1, 36), n_fock=96))
    return [weak, strong, dipole, spectrum]


def _cascade(j: _Jitter) -> list[Invocation]:
    x = j.coupling(1.0)
    out = []
    for temp in (0.0, 2.0):
        w = j.symmetric(4.0, 1601)
        out.append(Invocation(f"edm_rates_T{temp:g}", ("edm-rates",) + _sets(
            f"edm.g = {_num(x)}",
            "edm.gamma = 0.1",
            f"edm.temperature = {_num(temp)}",
            f"scan = omega, {_num(-w)}, {_num(w)}, 1601",
        ), 1, dict(x=x, gamma=0.1, temperature=temp, points=1601)))
    for m0 in (1, 2, 4):
        out.append(Invocation(f"edm_evolve_m{m0}", ("edm-evolve",) + _sets(
            f"edm.g = {_num(x)}",
            "edm.epsilon = 1.0",
            "edm.gamma = 0.1",
            "edm.temperature = 1.0",
            "edm.n_boson = 18",
            f"evolve.m0 = {m0}",
            "evolve.n_periods = 10.0",
            "evolve.points_per_period = 40",
        ), 1, dict(x=x, epsilon=1.0, gamma=0.1, temperature=1.0, n_boson=18, m0=m0)))
    for tilt in (0.0, 0.05):
        out.append(Invocation(f"tla_tilt{tilt:g}", ("tla",) + _sets(f"well.tilt = {_num(tilt)}"),
                              1, dict(tilt=tilt)))
    return out


_WORKLOADS = {"gap_map": _gap_map, "tunneling": _tunneling, "spectra": _spectra, "cascade": _cascade}


def build(name: str, seed: int) -> list[Invocation]:
    """The invocations of one pass of workload `name` for `seed`."""
    return _WORKLOADS[name](_Jitter(seed))
