"""Command-line front end: parameter scans and figure-ready data tables.

Every subcommand reads an optional config file (see config module for the
grammar), applies --set overrides, and emits a CSV or JSON table with a
self-describing metadata header.  Nothing is plotted; outputs are tables.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import replace

import numpy as np

from . import grwa
from .config import RunConfig, apply_overrides, load_config
from .dipole import tla_parameters
from .dynamics import run_tunneling_oscillations
from .edm import effective_dipole_evolve, gamma_T, total_rate
from .eigen import diagonalize
from .operators import build_rabi, default_n_fock, polaron_constant
from .response import (
    cavity_structure_factor,
    dipole_structure_factor,
    system_impedance,
    transmission,
)
from .scan import build_metadata, gap_rows, gap_scan, write_table

SPECTRUM_LEVELS = 6


def _cmd_gap_scan(config: RunConfig) -> tuple[list[str], list[tuple], tuple[str, ...]]:
    result = gap_scan(config)
    extra = (f"failed points: {len(result.failures)}",)
    return ["g", "epsilon", "lambda"], gap_rows(config, result), extra


def _grwa_levels(params, n_levels: int) -> list[float]:
    if abs(params.epsilon) < 1e-12:
        return grwa.symmetric_levels(params, n_levels)
    k = max(1, round(params.epsilon / params.omega_c))
    return grwa.asymmetric_levels(params, k, n_levels)


def _cmd_spectrum(config: RunConfig):
    g_values = [config.model.g]
    for ax in config.scan:
        if ax.name == "g":
            g_values = list(ax.grid())
        else:
            raise ValueError(f"spectrum supports only a g scan axis, got {ax.name!r}")
    rows = []
    for g in g_values:
        params = replace(config.model, g=float(g))
        eig = diagonalize(build_rabi(params))
        shift = polaron_constant(params)
        exact = eig.frequencies[:SPECTRUM_LEVELS] + shift
        approx = _grwa_levels(params, SPECTRUM_LEVELS)
        for i in range(SPECTRUM_LEVELS):
            rows.append((float(g), i, float(exact[i]), float(approx[i])))
    return ["g", "level_index", "omega_exact", "omega_grwa"], rows, ()


def _cmd_evolve(config: RunConfig):
    ev = config.evolve
    # never run with fewer Fock states than the coupling warrants
    n_fock = max(config.model.n_fock, default_n_fock(config.model.g, config.model.omega_c))
    run = run_tunneling_oscillations(
        k=ev.k,
        g=config.model.g,
        gamma=ev.gamma,
        temperature=config.temperature,
        n_fock=n_fock,
        m_levels=ev.m_levels,
        n_periods=ev.n_periods,
        points_per_period=ev.points_per_period,
    )
    rescaled = run.rescaled()
    rows = [
        (float(t), float(s), float(r))
        for t, s, r in zip(run.times, run.sx, rescaled)
    ]
    extra = (
        f"fitted omega: {run.fit.omega!r}",
        f"fitted decay: {run.fit.decay!r}",
        f"reference omega_(k,k): {run.omega_ref!r}",
        f"reference decay k*gamma/2: {run.decay_ref!r}",
    )
    return ["t", "sx", "sx_rescaled"], rows, extra


def _epsilon_values(config: RunConfig) -> list[float]:
    if not config.scan:
        return [config.model.epsilon]
    if len(config.scan) > 1 or config.scan[0].name != "epsilon":
        names = ", ".join(ax.name for ax in config.scan)
        raise ValueError(f"response maps scan only epsilon, got axes: {names}")
    return [float(v) for v in config.scan[0].grid()]


def _cmd_transmission(config: RunConfig):
    eta = config.response.eta or config.model.omega_c / config.response.q_factor
    omegas = config.response.grid()
    rows = []
    for eps in _epsilon_values(config):
        params = replace(config.model, epsilon=eps)
        eig = diagonalize(build_rabi(params))
        s_c = cavity_structure_factor(
            eig, params, config.temperature, omegas, eta, m_levels=config.m_levels
        )
        t = transmission(system_impedance(s_c), config.response.q_factor)
        rows.extend(
            (float(eps), float(w), float(abs(v))) for w, v in zip(omegas, t.values)
        )
    return ["epsilon", "omega", "value"], rows, ()


def _cmd_dipole_response(config: RunConfig):
    eta = config.response.eta or 0.05 * config.model.omega_c
    omegas = config.response.grid()
    rows = []
    for eps in _epsilon_values(config):
        params = replace(config.model, epsilon=eps)
        eig = diagonalize(build_rabi(params))
        s = dipole_structure_factor(
            eig, params, config.temperature, omegas, eta, m_levels=config.m_levels
        )
        rows.extend((float(eps), float(w), float(v)) for w, v in zip(omegas, s.values))
    return ["epsilon", "omega", "value"], rows, ()


def _cmd_edm_rates(config: RunConfig):
    p = config.edm
    omegas = None
    for ax in config.scan:
        if ax.name == "omega":
            omegas = ax.grid()
        else:
            raise ValueError(f"edm-rates scans only omega, got {ax.name!r}")
    if omegas is None:
        omegas = np.linspace(-4.0 * p.omega_c, 4.0 * p.omega_c, 1601)
    gamma_d = p.omega_d**2 * p.n_wells / p.gamma
    rows = []
    for w in omegas:
        up = gamma_T(float(w), p)
        tot = up - gamma_T(-float(w), p)
        rows.append((float(w), up, tot, tot / gamma_d))
    return ["omega", "gamma_T", "gamma_tot", "gamma_tot_over_gamma_d"], rows, ()


def _cmd_edm_evolve(config: RunConfig):
    p = config.edm
    ev = config.evolve
    gtot = total_rate(p)
    if gtot <= 0.0:
        raise ValueError("edm-evolve needs net cooling; check epsilon and temperature")
    horizon = ev.n_periods / gtot
    n_points = max(2, round(ev.n_periods * ev.points_per_period) + 1)
    times = np.linspace(0.0, horizon, n_points)
    traj = effective_dipole_evolve(p, ev.m0, times)
    rows = [
        (float(t), float(n))
        for t, n in zip(traj.times, traj.observables["excitation"])
    ]
    return ["t", "excitation"], rows, (f"total rate: {gtot!r}",)


def _cmd_tla(config: RunConfig):
    r = tla_parameters(config.well)
    row = (r.omega_d, r.x_10, r.epsilon, r.gap_ratio, str(r.valid).lower())
    return ["omega_d", "x_10", "epsilon", "gap_ratio", "valid"], [row], ()


def _cmd_rabi_freq(config: RunConfig):
    rows = []
    for k in range(1, 5):
        for n in range(k, k + 6):
            rows.append((k, n, grwa.rabi_frequency(k, n, config.model)))
    return ["k", "n", "omega_kn"], rows, ()


_COMMANDS = {
    "gap-scan": _cmd_gap_scan,
    "spectrum": _cmd_spectrum,
    "evolve": _cmd_evolve,
    "transmission": _cmd_transmission,
    "dipole-response": _cmd_dipole_response,
    "edm-rates": _cmd_edm_rates,
    "edm-evolve": _cmd_edm_evolve,
    "tla": _cmd_tla,
    "rabi-freq": _cmd_rabi_freq,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usc-relax",
        description="Relaxation, spectra, and response of a dipole ultrastrongly "
        "coupled to an LC cavity; emits figure-ready data tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"{name} table")
        p.add_argument("--config", help="config file path (flat key = value format)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config entry (repeatable)",
        )
        p.add_argument("--output", help="write the table here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--verbose", action="store_true", help="log per-point progress")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = load_config(args.config) if args.config else RunConfig()
        config = apply_overrides(config, args.set)
        if args.output:
            config = replace(config, output=args.output)
        if args.format:
            config = replace(config, fmt=args.format)
        columns, rows, extra = _COMMANDS[args.command](config)
        metadata = build_metadata(config, extra=extra)
        if config.output:
            with open(config.output, "w") as stream:
                write_table(stream, metadata, columns, rows, config.fmt)
        else:
            write_table(sys.stdout, metadata, columns, rows, config.fmt)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
