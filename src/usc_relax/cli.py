"""Command-line front end: parameter scans and figure-ready data tables.

Every subcommand reads an optional config file (see config module for the
grammar), applies --set overrides, and emits a CSV or JSON table with a
self-describing metadata header.  Nothing is plotted; outputs are tables.

Every point a table reports is solved by eigen.certified_eigensystem, so
its levels are certified against the Fock truncation.  A gap-scan point
that fails becomes a NaN row counted in "failed points"; in every other
subcommand the failure ends the run with exit status 2.  model.n_fock =
auto is resolved from the base g, so a g scan that outgrows it fails.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from dataclasses import replace

import numpy as np

from . import grwa
from .config import RunConfig, apply_overrides, load_config
from .dipole import tla_parameters
from .dynamics import run_tunneling_oscillations
from .edm import effective_dipole_evolve, gamma_T, total_rate
from .eigen import certified_eigensystem
from .operators import default_n_fock, polaron_constant
from .response import (
    cavity_structure_factor,
    dipole_structure_factor,
    system_impedance,
    transmission,
)
from .scan import build_metadata, gap_rows, gap_scan, log_point, write_table

SPECTRUM_LEVELS = 6


def _cmd_gap_scan(config: RunConfig) -> tuple[dict[str, np.ndarray], tuple[str, ...]]:
    result = gap_scan(config)
    extra = (f"failed points: {len(result.failures)}",)
    return gap_rows(config, result), extra


def _grwa_levels(params, n_levels: int) -> list[float]:
    if abs(params.epsilon) < 1e-12:
        return grwa.symmetric_levels(params, n_levels)
    k = max(1, round(params.epsilon / params.omega_c))
    return grwa.asymmetric_levels(params, k, n_levels)


def _axis_values(config: RunConfig, default: float) -> list[float]:
    """The grid of the command's one scan axis, or [default] without a scan."""
    if not config.scan:
        return [default]
    return [float(v) for v in config.scan[0].grid()]


def _cmd_spectrum(config: RunConfig):
    g_values = _axis_values(config, config.model.g)
    exact, approx = [], []
    for g in g_values:
        start = time.perf_counter()
        params = replace(config.model, g=float(g))
        eig = certified_eigensystem(params, SPECTRUM_LEVELS)
        exact.append(eig.frequencies + polaron_constant(params))
        approx.append(_grwa_levels(params, SPECTRUM_LEVELS))
        log_point("spectrum", {"g": float(g)}, params.n_fock, start)
    columns = {
        "g": np.repeat(np.asarray(g_values, dtype=float), SPECTRUM_LEVELS),
        "level_index": np.tile(np.arange(SPECTRUM_LEVELS), len(g_values)),
        "omega_exact": np.concatenate(exact),
        "omega_grwa": np.asarray(approx, dtype=float).reshape(-1),
    }
    return columns, ()


def _cmd_evolve(config: RunConfig):
    ev = config.evolve
    # never run with fewer Fock states than the coupling warrants
    n_fock = max(config.model.n_fock, default_n_fock(config.model.g, config.model.omega_c))
    run = run_tunneling_oscillations(
        k=ev.k,
        params=replace(config.model, n_fock=n_fock),
        gamma=ev.gamma,
        temperature=config.temperature,
        m_levels=ev.m_levels,
        n_periods=ev.n_periods,
        points_per_period=ev.points_per_period,
    )
    columns = {"t": run.times, "sx": run.sx, "sx_rescaled": run.rescaled()}
    # the config echo above holds the requested model; these say what ran
    extra = (
        f"run epsilon: {run.params.epsilon!r}",
        f"run n_fock: {run.params.n_fock}",
        f"projection deficit: {run.trajectory.projection_deficit!r}",
        f"fitted omega: {run.fit.omega!r}",
        f"fitted decay: {run.fit.decay!r}",
        f"reference omega_(k,k): {run.omega_ref!r}",
        f"reference decay k*gamma/2: {run.decay_ref!r}",
    )
    return columns, extra


def _response_map(config: RunConfig, kind: str, structure_factor, eta: float, value) -> dict:
    """An epsilon map as (epsilon, omega, value) columns, one omega block per epsilon.

    value turns each epsilon's structure factor into the real values tabulated.
    """
    omegas = config.response.grid()
    epsilons = _axis_values(config, config.model.epsilon)
    values = []
    for eps in epsilons:
        start = time.perf_counter()
        params = replace(config.model, epsilon=eps)
        eig = certified_eigensystem(params, config.m_levels)
        s = structure_factor(eig, params, config.temperature, omegas, eta)
        values.append(value(s))
        log_point(kind, {"epsilon": eps}, params.n_fock, start)
    return {
        "epsilon": np.repeat(epsilons, len(omegas)),
        "omega": np.tile(omegas, len(epsilons)),
        "value": np.concatenate(values),
    }


def _cmd_transmission(config: RunConfig):
    eta = config.response.eta or config.model.omega_c / config.response.q_factor

    def magnitude(s_c):
        t = transmission(system_impedance(s_c), config.response.q_factor).values
        return np.hypot(t.real, t.imag)   # bit-identical to abs() of each value

    return _response_map(config, "transmission", cavity_structure_factor, eta, magnitude), ()


def _cmd_dipole_response(config: RunConfig):
    eta = config.response.eta or 0.05 * config.model.omega_c
    columns = _response_map(
        config, "dipole-response", dipole_structure_factor, eta, lambda s: s.values
    )
    return columns, ()


def _cmd_edm_rates(config: RunConfig):
    p = config.edm
    if config.scan:
        omegas = config.scan[0].grid()
    else:
        omegas = np.linspace(-4.0 * p.omega_c, 4.0 * p.omega_c, 1601)
    gamma_d = p.omega_d**2 * p.n_wells / p.gamma
    up = np.array([gamma_T(float(w), p) for w in omegas])
    tot = up - np.array([gamma_T(-float(w), p) for w in omegas])
    columns = {
        "omega": np.asarray(omegas, dtype=float),
        "gamma_T": up,
        "gamma_tot": tot,
        "gamma_tot_over_gamma_d": tot / gamma_d,
    }
    return columns, ()


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
    columns = {"t": traj.times, "excitation": traj.observables["excitation"]}
    return columns, (f"total rate: {gtot!r}",)


def _cmd_tla(config: RunConfig):
    r = tla_parameters(config.well)
    columns = {
        "omega_d": [r.omega_d],
        "x_10": [r.x_10],
        "epsilon": [r.epsilon],
        "gap_ratio": [r.gap_ratio],
        "valid": [str(r.valid).lower()],
    }
    return columns, ()


def _cmd_rabi_freq(config: RunConfig):
    pairs = [(k, n) for k in range(1, 5) for n in range(k, k + 6)]
    columns = {
        "k": [k for k, _ in pairs],
        "n": [n for _, n in pairs],
        "omega_kn": [grwa.rabi_frequency(k, n, config.model) for k, n in pairs],
    }
    return columns, ()


# each subcommand with the scan axes it accepts, each at most once
_COMMANDS = {
    "gap-scan": (_cmd_gap_scan, ("g", "epsilon", "T")),
    "spectrum": (_cmd_spectrum, ("g",)),
    "evolve": (_cmd_evolve, ()),
    "transmission": (_cmd_transmission, ("epsilon",)),
    "dipole-response": (_cmd_dipole_response, ("epsilon",)),
    "edm-rates": (_cmd_edm_rates, ("omega",)),
    "edm-evolve": (_cmd_edm_evolve, ()),
    "tla": (_cmd_tla, ()),
    "rabi-freq": (_cmd_rabi_freq, ()),
}


def _check_scan_axes(command: str, config: RunConfig) -> None:
    accepted = _COMMANDS[command][1]
    names = [ax.name for ax in config.scan]
    if set(names) <= set(accepted) and len(set(names)) == len(names):
        return
    got = ", ".join(names)
    if not accepted:
        raise ValueError(f"{command} takes no scan axis, got {got}")
    if len(accepted) == 1:
        article = "an" if accepted[0][0] in "aeiou" else "a"
        raise ValueError(f"{command} supports only {article} {accepted[0]} scan axis, got {got}")
    allowed = ", ".join(accepted[:-1]) + " or " + accepted[-1]
    raise ValueError(f"{command} supports only distinct {allowed} scan axes, got {got}")


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
        _check_scan_axes(args.command, config)
        columns, extra = _COMMANDS[args.command][0](config)
        metadata = build_metadata(config, extra=extra)
        if config.output:
            with open(config.output, "w") as stream:
                write_table(stream, metadata, columns, config.fmt)
        else:
            write_table(sys.stdout, metadata, columns, config.fmt)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
