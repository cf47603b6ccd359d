"""Relaxation and response of a dipole ultrastrongly coupled to an LC cavity.

The package solves the lab-frame quantum Rabi model as a band matrix for
the retained levels only (the dense polaron-frame builder is kept as a
reference), assembles thermalizing Lindblad generators in the eigenbasis,
and extracts the observables a circuit experiment would see:
Liouvillian gaps, multi-photon Rabi oscillations, transmission and dipole
response spectra, and cavity-mediated cooling rates of a multi-well dipole.
"""

__version__ = "0.1.0"

from .operators import (
    ModelParams,
    build_polaron_rabi,
    build_rabi,
    default_n_fock,
    displacement_element,
    displacement_matrix,
    polaron_constant,
    rabi_bands,
)
from .eigen import EigenSystem, certified_eigensystem, diagonalize
from .lindblad import (
    BathSpec,
    Liouvillian,
    Trajectory,
    build_liouvillian,
    cavity_bath,
    dipole_bath,
    evolve,
    fit_rabi_decay,
    gibbs_state,
    liouvillian_eigenvalues,
    liouvillian_gap,
    steady_state,
    thermal_occupation,
)
from .dynamics import TunnelingRun, right_vacuum_state, run_tunneling_oscillations
from .response import (
    SpectrumGrid,
    cavity_structure_factor,
    dipole_structure_factor,
    system_impedance,
    transmission,
)
from .edm import (
    EdmParams,
    NoNetCoolingError,
    effective_dipole_evolve,
    gamma_T,
    saturation_number,
    total_rate,
    validity_report,
)
from .dipole import TlaReport, WellParams, solve_double_well, tla_parameters
from .config import RunConfig, ScanAxis, load_config, parse_config
from . import grwa

__all__ = [
    "ModelParams",
    "build_rabi",
    "rabi_bands",
    "build_polaron_rabi",
    "polaron_constant",
    "default_n_fock",
    "displacement_element",
    "displacement_matrix",
    "EigenSystem",
    "diagonalize",
    "certified_eigensystem",
    "BathSpec",
    "cavity_bath",
    "dipole_bath",
    "Liouvillian",
    "build_liouvillian",
    "liouvillian_eigenvalues",
    "liouvillian_gap",
    "gibbs_state",
    "steady_state",
    "thermal_occupation",
    "Trajectory",
    "evolve",
    "fit_rabi_decay",
    "TunnelingRun",
    "right_vacuum_state",
    "run_tunneling_oscillations",
    "SpectrumGrid",
    "cavity_structure_factor",
    "dipole_structure_factor",
    "system_impedance",
    "transmission",
    "EdmParams",
    "gamma_T",
    "total_rate",
    "saturation_number",
    "validity_report",
    "effective_dipole_evolve",
    "NoNetCoolingError",
    "WellParams",
    "TlaReport",
    "solve_double_well",
    "tla_parameters",
    "RunConfig",
    "ScanAxis",
    "parse_config",
    "load_config",
    "grwa",
    "__version__",
]
