#!/usr/bin/env python3
"""Relaxation-gap phase diagram: slowest Liouvillian mode over (g, epsilon).

Emits one CSV with columns g, epsilon, lambda.  The resonant lobes near
epsilon = k omega_c show up as ridges of |lambda| against the exponential
suppression along epsilon = 0.
"""

import argparse
import sys
from pathlib import Path

from usc_relax.cli import main


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--g-max", type=float, default=3.5)
    p.add_argument("--g-points", type=int, default=15)
    p.add_argument("--eps-max", type=float, default=1.5)
    p.add_argument("--eps-points", type=int, default=16)
    p.add_argument("--gamma", type=float, default=0.05, help="cavity rate; dipole is 4x")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--n-fock", type=int, default=80)
    p.add_argument("--outdir", type=Path, default=Path("data"))
    return p.parse_args()


def run(args) -> int:
    args.outdir.mkdir(parents=True, exist_ok=True)
    out = args.outdir / "gap_phase_diagram.csv"
    argv = [
        "gap-scan",
        "--set", f"scan = g, 0.0, {args.g_max}, {args.g_points}",
        "--set", f"scan = epsilon, 0.0, {args.eps_max}, {args.eps_points}",
        "--set", f"bath = cavity, ohmic, {args.gamma}, 1.0",
        "--set", f"bath = dipole, radiative, {4.0 * args.gamma}, 1.0, 3.0",
        "--set", f"model.n_fock = {args.n_fock}",
        "--set", f"temperature = {args.temperature}",
        "--output", str(out),
    ]
    code = main(argv)
    if code == 0:
        print(f"wrote {out}")
    return code


if __name__ == "__main__":
    sys.exit(run(parse_args()))
