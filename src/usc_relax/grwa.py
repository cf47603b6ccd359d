"""Generalized rotating-wave closed forms for the polaron Rabi model.

The multi-photon polaron version of the textbook dressed-state picture:
every level is one of a 2 x 2 dressed doublet (Doublet, built by doublet).
The vacuum block gives the ground, the symmetric n-blocks the epsilon = 0
ladder with its Hopfield angles, and the k-photon-resonance blocks, coupled
by the multi-photon Rabi frequencies Omega_(k,n), the asymmetric one.  This
module alone decides which ladder and which resonance apply at a given
epsilon (levels, nearest_resonance).  The tables read the levels
(spectrum's omega_grwa column) and Omega_(k,n) (rabi-freq, evolve's
reference frequency, the cascade's validity check).  The symmetric ladder
is an EigenSystem (symmetric_eigensystem): its vectors are the doublet
eigenvectors in the library basis, so this module forms no transition
element.  The elements between dressed states and their golden-rule rates
come from lindblad's coupling_elements and build_liouvillian, as for the
exact levels; the test oracles key them by branch for the printed table.

Energies produced here are referenced to the polaron-frame zero in which
the c-number g^2/(4 omega_c) generated by the polaron transform is dropped
(the convention of the closed-form expressions).  Add
operators.polaron_constant(params) to a lab-frame Rabi eigenvalue before
comparing, or equivalently subtract it from the values returned here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .eigen import EigenSystem
from .operators import ModelParams, displacement_element, laguerre

RESONANCE_TOL = 1e-9  # |detuning| / splitting below which a doublet counts as exactly resonant


@dataclass(frozen=True)
class Doublet:
    """Dressed doublet of one 2 x 2 block, the record of every gRWA level.

    The block is [[mean + detuning/2, coupling/2], [coupling/2, mean -
    detuning/2]]: the vacuum block, a symmetric n-block or a k-resonance
    block.  omega_plus and omega_minus are
    mean +- r/2 with splitting r = sqrt(detuning^2 + coupling^2).  The
    half-angle weights are non-negative; the upper eigenvector is (cos_half,
    sign(coupling) sin_half).  A doublet whose |detuning| is below
    RESONANCE_TOL times its splitting r counts as exactly resonant and gets
    the equal-weight pair.
    """

    mean: float
    detuning: float
    coupling: float
    omega_plus: float
    omega_minus: float
    cos_half: float
    sin_half: float


def doublet(mean: float, detuning: float, coupling: float) -> Doublet:
    """The eigenpairs of one 2 x 2 block, as a Doublet."""
    r = math.hypot(detuning, coupling)
    if r == 0.0 or abs(detuning) < RESONANCE_TOL * r:
        cos_half = sin_half = math.sqrt(0.5)
    else:
        cos_half = math.sqrt(0.5 * (1.0 + detuning / r))
        sin_half = math.sqrt(0.5 * (1.0 - detuning / r))
    return Doublet(mean, detuning, coupling, mean + 0.5 * r, mean - 0.5 * r, cos_half, sin_half)


def _two_level_check(params: ModelParams) -> None:
    if params.spin_n != 1:
        raise ValueError("gRWA closed forms are for the two-level (spin_n = 1) model")


def tunneling_suppression(params: ModelParams) -> float:
    """Polaron-dressed tunneling scale omega_d e^{-g^2/(2 omega_c^2)}."""
    x = params.g / params.omega_c
    return params.omega_d * math.exp(-0.5 * x * x)


def ground_state_energy(params: ModelParams) -> float:
    """Polaron-frame ground energy -sqrt(eps^2 + omega_d^2 e^{-g^2/omega_c^2})/2.

    The lower level of the vacuum doublet (|left, 0>, |right, 0>), whose
    coupling is the tunneling dressed by the diagonal displacement element
    D_00; reduces to -omega_d/2 at g = 0, epsilon = 0.
    """
    _two_level_check(params)
    return doublet(0.0, params.epsilon, tunneling_suppression(params)).omega_minus


# ---------------------------------------------------------------------------
# Symmetric model (epsilon = 0)
# ---------------------------------------------------------------------------

def symmetric_block(params: ModelParams, n: int) -> Doublet:
    """The n-th polaron doublet of the symmetric model.

    Basis (|down, n>, |up, n-1>), block [[A_n, C_n], [C_n, B_n]]: A_n
    carries the photon-like diagonal, B_n the matter-like one, C_n the
    Laguerre-dressed coupling that reduces to the Jaynes-Cummings
    (g/2) sqrt(n) at small coupling.
    """
    _two_level_check(params)
    if params.epsilon != 0.0:
        raise ValueError("symmetric blocks require epsilon = 0; use k_resonance_block")
    if n < 1:
        raise ValueError(f"block index n must be >= 1, got {n}")
    x = params.g / params.omega_c
    xs = x * x
    half_tunnel = 0.5 * params.omega_d * math.exp(-0.5 * xs)
    a = params.omega_c * n - half_tunnel * laguerre(n, 0, xs)
    b = params.omega_c * (n - 1) + half_tunnel * laguerre(n - 1, 0, xs)
    c = x * half_tunnel * math.exp(0.5 * (math.lgamma(n) - math.lgamma(n + 1))) * laguerre(
        n - 1, 1, xs
    )
    return doublet(0.5 * (a + b), a - b, 2.0 * c)


def symmetric_eigensystem(params: ModelParams, n_levels: int) -> EigenSystem:
    """The lowest n_levels of the epsilon = 0 dressed ladder as an EigenSystem.

    Frequencies are the closed-form levels, ascending, in the polaron-frame
    zero of this module; the vectors live in the polaron-frame library
    basis at params.n_fock (row s * n_fock + n, s = 0 for s_z = +1/2).  The
    ground is |down, 0>; block n's plus state is c |down, n> + s |up, n-1>
    and its minus state -s |down, n> + c |up, n-1>, with (c, s) =
    (cos_half, sign(C_n) sin_half), so every column is an eigenvector of
    build_polaron_rabi's 2 x 2 block.  Blocks 1..n_levels // 2 + 2 are
    walked; one past n_fock - 1 has no |down, n> row and is left out.
    Equal levels keep walk order: the ground, then minus before plus.
    """
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    n_fock = params.n_fock
    n_blocks = min(n_levels // 2 + 2, n_fock - 1)   # block n needs the row of |down, n>
    if n_levels > 2 * n_blocks + 1:
        raise ValueError(f"n_fock = {n_fock} holds {2 * n_blocks + 1} < {n_levels} levels")
    freqs = [ground_state_energy(params)]
    vecs = np.zeros((params.dim, 2 * n_blocks + 1))
    vecs[n_fock, 0] = 1.0                            # |down, 0>
    for n in range(1, n_blocks + 1):
        block = symmetric_block(params, n)
        c, s = block.cos_half, math.copysign(block.sin_half, block.coupling)
        freqs += [block.omega_minus, block.omega_plus]
        rows = [n_fock + n, n - 1]                   # |down, n>, |up, n - 1>
        vecs[rows, 2 * n - 1] = (-s, c)
        vecs[rows, 2 * n] = (c, s)
    order = np.argsort(freqs, kind="stable")[:n_levels]
    return EigenSystem(frequencies=np.asarray(freqs)[order], vectors=vecs[:, order])


def symmetric_levels(params: ModelParams, n_levels: int) -> list[float]:
    """Lowest polaron-frame energies at epsilon = 0: vacuum level plus pairs.

    The frequencies of symmetric_eigensystem at the smallest Fock cutoff
    that walks all of its blocks; they do not depend on params.n_fock.
    """
    walked = replace(params, n_fock=n_levels // 2 + 3)
    return symmetric_eigensystem(walked, n_levels).frequencies.tolist()


# ---------------------------------------------------------------------------
# Asymmetric resonances epsilon ~ k omega_c
# ---------------------------------------------------------------------------

def rabi_frequency(k: int, n: int, params: ModelParams) -> float:
    """Multi-photon Rabi frequency Omega_(k,n) = omega_d D_{n,n-k}(g/omega_c).

    Uses the unsigned-x displacement convention of the tabulated coupling,
    i.e. the matrix element of exp[x(a^dag - a)]; it differs from
    displacement_element(n, n-k, x) by the photon-parity gauge (-1)^k that
    no splitting or rate can see.  The sign of the returned value follows
    the Laguerre factor.
    """
    _two_level_check(params)
    if k < 1:
        raise ValueError(f"resonance order k must be >= 1, got {k}")
    if n < k:
        raise ValueError(f"block index n must be >= k, got n={n}, k={k}")
    return params.omega_d * displacement_element(n, n - k, -params.g / params.omega_c)


def k_resonance_block(params: ModelParams, k: int, n: int) -> Doublet:
    """The (k, n) doublet of the asymmetric polaron model.

    Basis (|left, n>, |right, n-k>): mean omega_c (n - k/2), detuning
    omega_c k - epsilon, coupling Omega_(k,n).
    """
    mean = params.omega_c * (n - 0.5 * k)
    return doublet(mean, params.omega_c * k - params.epsilon, rabi_frequency(k, n, params))


def asymmetric_levels(params: ModelParams, k: int, n_levels: int) -> list[float]:
    """Lowest polaron-frame energies near the k-photon resonance.

    Ground level from the vacuum-block formula, unpaired |left, n> singles
    for 0 < n < k at omega_c n - epsilon/2 (their small diagonal dressing is
    neglected, as in the printed treatment), then the (k, n >= k) doublets.
    """
    energies = [ground_state_energy(params)]
    for n in range(1, k):
        energies.append(params.omega_c * n - 0.5 * params.epsilon)
    n_top = k + n_levels // 2 + 2
    for n in range(k, n_top + 1):
        block = k_resonance_block(params, k, n)
        energies.extend((block.omega_minus, block.omega_plus))
    return sorted(energies)[:n_levels]


# ---------------------------------------------------------------------------
# Which ladder applies at a given epsilon
# ---------------------------------------------------------------------------

def nearest_resonance(epsilon: float, omega_c: float) -> int:
    """The resonance order k = max(1, round(|epsilon| / omega_c)) nearest epsilon.

    The resonances sit at |epsilon| = k omega_c: H(-epsilon) = P H(epsilon) P
    with P = (-1)^(a^dag a) sigma_z.
    """
    return max(1, round(abs(epsilon) / omega_c))


def levels(params: ModelParams, n_levels: int) -> list[float]:
    """The lowest gRWA levels at |epsilon|, by the same parity P.

    The symmetric ladder below |epsilon| = 1e-12, otherwise the ladder of
    the nearest resonance.
    """
    if abs(params.epsilon) < 1e-12:
        return symmetric_levels(replace(params, epsilon=0.0), n_levels)
    params = replace(params, epsilon=abs(params.epsilon))
    return asymmetric_levels(params, nearest_resonance(params.epsilon, params.omega_c), n_levels)
