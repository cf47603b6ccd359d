"""Command-line front end: parameter scans and figure-ready data tables.

Every subcommand reads an optional config file (see config module for the
grammar), applies --set overrides as its last lines, and emits a CSV or
JSON table with a self-describing metadata header: the config echo, then
one `name: value` line per extra, among them how far to trust the table
(evolve's collapse deviation, the cascade tables' elimination checks and
saturation number).  --output and --format say where and how the table is
written, so the header echoes neither.  Nothing is plotted; outputs are
tables.  The gRWA rules (which ladder, which resonance) live in grwa
alone: spectrum's omega_grwa column is grwa.levels.

gap-scan, spectrum, transmission and dipole-response are point maps: each
gives scan.map_points a function returning one point's block of columns,
and the table is the list of blocks (scan.write_table).  Every point a
table reports is solved by eigen.certified_eigensystem, so its levels are
certified against the Fock truncation; transmission and dipole-response are
even in epsilon, so they solve every distinct |epsilon| once, at
+|epsilon|, and a mirrored point's block holds the same value array, next
to the one omega grid every block shares, so each is formatted once.  A
gap-scan point that raises ValueError (a declared refusal, LinAlgError
included) becomes a NaN row counted in "failed points"; any other error
ends the scan, and in every other subcommand a failing point ends the run
with exit status 2.  model.n_fock = auto is resolved from the base g, so a
g scan that outgrows it fails.  A reader that closes the table's pipe early
(usc-relax ... | head) ends the run with status 141, as SIGPIPE would, and
no error line; any other failed write exits 2.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from . import grwa
from .config import RunConfig, ScanAxis, apply_overrides, load_config
from .dipole import tla_parameters
from .dynamics import run_tunneling_oscillations
from .edm import (
    EdmParams,
    NoNetCoolingError,
    effective_dipole_evolve,
    gamma_T,
    net_rate,
    saturation_number,
    total_rate,
    validity_report,
)
from .eigen import certified_eigensystem
from .operators import default_n_fock, polaron_constant
from .response import (
    cavity_structure_factor,
    dipole_structure_factor,
    system_impedance,
    transmission,
)
from .scan import at_point, build_metadata, gap_scan, map_points, write_table

SPECTRUM_LEVELS = 6


def _cmd_gap_scan(config: RunConfig) -> tuple[dict[str, np.ndarray], tuple[str, ...]]:
    columns, failures = gap_scan(config)
    return columns, (f"failed points: {len(failures)}",)


def _cmd_spectrum(config: RunConfig):
    def spectrum_point(point):
        params = at_point(config, point).model
        eig = certified_eigensystem(params, SPECTRUM_LEVELS)
        return {
            "g": params.g,
            "level_index": np.arange(SPECTRUM_LEVELS),
            "omega_exact": eig.frequencies + polaron_constant(params),
            "omega_grwa": np.asarray(grwa.levels(params, SPECTRUM_LEVELS), dtype=float),
        }

    return map_points(config, "spectrum", spectrum_point), ()


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
        f"projection deficit: {run.projection_deficit!r}",
        f"fitted omega: {run.fit.omega!r}",
        f"fitted decay: {run.fit.decay!r}",
        f"reference omega_(k,k): {run.omega_ref!r}",
        f"reference decay k*gamma/2: {run.decay_ref!r}",
        f"collapse deviation: {run.collapse_deviation()!r}",
    )
    return columns, extra


def _response_map(config: RunConfig, kind: str, structure_factor, eta: float, value) -> list:
    """An epsilon map as (epsilon, omega, value) blocks, one omega block per epsilon.

    value turns each epsilon's structure factor into the real values tabulated.
    H(-epsilon) = P H(epsilon) P with P = (-1)^(a^dag a) sigma_z, and both
    couplings enter the structure factors only as |<n|X|m>|^2, so the values
    are even in epsilon: each |epsilon| is solved once, at +|epsilon|, and
    its mirror point's block holds that same value array.  Each block's
    epsilon is a scalar and its omega the one grid array.
    """
    omegas = config.response.grid()
    values = {}   # |epsilon| -> value column

    def response_point(point):
        cfg = at_point(config, point)
        eps = abs(cfg.model.epsilon)
        if eps not in values:
            model = replace(cfg.model, epsilon=eps)
            eig = certified_eigensystem(model, cfg.m_levels)
            values[eps] = value(structure_factor(eig, model, cfg.temperature, omegas, eta))
        return {
            "epsilon": cfg.model.epsilon,
            "omega": omegas,
            "value": values[eps],
        }

    return map_points(config, kind, response_point)


def _cmd_transmission(config: RunConfig):
    eta = config.response.eta or config.model.omega_c / config.response.q_factor

    def magnitude(s_c):
        t = transmission(system_impedance(s_c), config.response.q_factor).values
        return np.hypot(t.real, t.imag)   # bit-identical to abs() of each value

    return _response_map(config, "transmission", cavity_structure_factor, eta, magnitude), ()


def _cmd_dipole_response(config: RunConfig):
    eta = config.response.eta or 0.05 * config.model.omega_c
    blocks = _response_map(
        config, "dipole-response", dipole_structure_factor, eta, lambda s: s.values
    )
    return blocks, ()


def _edm_trust(p: EdmParams) -> tuple[str, ...]:
    """How far the eliminated cascade holds at edm.epsilon, and its saturation number."""
    v = validity_report(p)
    try:
        saturation = repr(saturation_number(p))
    except NoNetCoolingError:
        saturation = "none"
    return (
        f"adiabatic elimination ok: {str(v.adiabatic_ok).lower()}",
        f"usc ok: {str(v.usc_ok).lower()}",
        f"resonance k: {v.k}",
        f"splitting omega_(k,k): {v.splitting!r}",
        f"thermal reference: {v.thermal_reference!r}",
        *(f"validity warning: {message}" for message in v.messages),
        f"saturation number: {saturation}",
    )


def _cmd_edm_rates(config: RunConfig):
    p = config.edm
    if config.scan:
        omegas = config.scan[0].grid()
    else:   # mirror-exact, as an explicit symmetric scan axis is
        omegas = ScanAxis("omega", -4.0 * p.omega_c, 4.0 * p.omega_c, 1601).grid()
    tot = net_rate(omegas, p)
    columns = {
        "omega": omegas,
        "gamma_T": gamma_T(omegas, p),
        "gamma_tot": tot,
        "gamma_tot_over_gamma_d": tot / p.gamma_d,
    }
    return columns, _edm_trust(p)


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
    return columns, (f"total rate: {gtot!r}", *_edm_trust(p))


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
    """One flat parser: the subcommand is a positional choice, the options are shared."""
    parser = argparse.ArgumentParser(
        prog="usc-relax",
        description="Relaxation, spectra, and response of a dipole ultrastrongly "
        "coupled to an LC cavity; emits figure-ready data tables.",
    )
    parser.add_argument("command", choices=_COMMANDS, help="the table to emit")
    parser.add_argument("--config", help="config file path (flat key = value format)")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config entry (repeatable)",
    )
    parser.add_argument("--output", help="write the table here instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--verbose", action="store_true", help="log per-point progress")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # basicConfig leaves a root logger that already has handlers as it is, so
    # --verbose also lowers the package's own level, for this call only
    package_log = logging.getLogger("usc_relax")
    level = package_log.level
    if args.verbose:
        package_log.setLevel(logging.INFO)
    try:
        if args.config:
            config = load_config(args.config, args.set)
        else:
            config = apply_overrides(RunConfig(), args.set)
        _check_scan_axes(args.command, config)
        table, extra = _COMMANDS[args.command][0](config)
        metadata = build_metadata(config, extra=extra)
        fmt = args.format or "csv"
        if args.output:
            with open(args.output, "w") as stream:
                write_table(stream, metadata, table, fmt)
        else:
            write_table(sys.stdout, metadata, table, fmt)
            sys.stdout.flush()
    except BrokenPipeError:   # the table's reader stopped early (| head): not a refusal
        # what stdout still buffers goes nowhere, not to the closed pipe at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141   # 128 + SIGPIPE, as if the signal had ended the run
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        package_log.setLevel(level)
    return 0


if __name__ == "__main__":
    sys.exit(main())
