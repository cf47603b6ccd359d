"""Relaxation and response of a dipole ultrastrongly coupled to an LC cavity.

Each name is imported from the module that defines it; the package itself
defines only __version__.  The modules, in dependency order:

    operators  model parameters; the lab-frame Rabi Hamiltonian as a band
               matrix (rabi_bands) and the dense polaron-frame reference
    eigen      certified eigensystem of the retained levels
    grwa       closed-form block spectrum, tunneling frequencies, dressed ladder
    lindblad   line list, thermal rates, Liouvillian gap and spectrum, evolve
    dynamics   resonant tunneling-oscillation scenario
    response   structure factors, impedance, transmission
    edm        adiabatically eliminated multi-well cascade
    dipole     double-well levels and their two-level reduction
    config     flat key = value config grammar and scan axes
    scan       point loop, gap scan, table emission
    cli        the usc-relax command line
"""

__version__ = "0.1.0"
