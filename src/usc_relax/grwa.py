"""Generalized rotating-wave closed forms for the polaron Rabi model.

Block-diagonal approximations of the polaron-frame Hamiltonian: the
symmetric (epsilon = 0) dressed ladder with Hopfield angles, the
k-photon-resonance blocks of the asymmetric model and multi-photon Rabi
frequencies.  The tables read the levels (spectrum's omega_grwa column)
and Omega_(k,n) (rabi-freq, evolve's reference frequency, the cascade's
validity check).  The symmetric ladder is an EigenSystem
(symmetric_eigensystem): its vectors are the 2 x 2 block eigenvectors in
the library basis, so this module forms no transition element.  The
elements between dressed states and their golden-rule rates come from
lindblad's coupling_elements and build_liouvillian, as for the exact
levels; the test oracles key them by branch for the printed table.

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

RESONANCE_TOL = 1e-9  # |detuning|/omega_c below which a block counts as exactly resonant


def _two_level_check(params: ModelParams) -> None:
    if params.spin_n != 1:
        raise ValueError("gRWA closed forms are for the two-level (spin_n = 1) model")


def tunneling_suppression(params: ModelParams) -> float:
    """Polaron-dressed tunneling scale omega_d e^{-g^2/(2 omega_c^2)}."""
    x = params.g / params.omega_c
    return params.omega_d * math.exp(-0.5 * x * x)


def ground_state_energy(params: ModelParams) -> float:
    """Polaron-frame ground energy -sqrt(eps^2 + omega_d^2 e^{-g^2/omega_c^2})/2.

    Includes the vacuum-block dressing by the diagonal displacement element
    D_00; reduces to -omega_d/2 at g = 0, epsilon = 0.
    """
    _two_level_check(params)
    x = params.g / params.omega_c
    return -0.5 * math.hypot(params.epsilon, params.omega_d * math.exp(-0.5 * x * x))


def _two_level(mean: float, delta: float, off: float) -> tuple[float, float, float, float]:
    """Eigenpairs of [[mean + delta/2, off/2], [off/2, mean - delta/2]].

    Returns (omega_plus, omega_minus, cos_half, sin_half).  The half-angle
    weights are non-negative; the upper eigenvector is (cos_half,
    sign(off) sin_half).  A block whose |delta| is below RESONANCE_TOL of
    its splitting counts as exactly resonant and gets the equal-weight pair.
    """
    r = math.hypot(delta, off)
    if r == 0.0 or abs(delta) < RESONANCE_TOL * r:
        cos_half = sin_half = math.sqrt(0.5)
    else:
        cos_half = math.sqrt(0.5 * (1.0 + delta / r))
        sin_half = math.sqrt(0.5 * (1.0 - delta / r))
    return mean + 0.5 * r, mean - 0.5 * r, cos_half, sin_half


# ---------------------------------------------------------------------------
# Symmetric model (epsilon = 0)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockCoefficients:
    """Entries of the n-th polaron block [[a, c], [c, b]] at epsilon = 0.

    Basis is (|down, n>, |up, n-1>); a carries the photon-like diagonal,
    b the matter-like one, c the Laguerre-dressed coupling that reduces to
    the Jaynes-Cummings (g/2) sqrt(n) at small coupling.
    """

    n: int
    a: float
    b: float
    c: float


@dataclass(frozen=True)
class DressedPair:
    """Dressed doublet of one polaron block with its non-negative Hopfield weights.

    The upper eigenvector of [[a, c], [c, b]] is (cos_half, sign(c) sin_half).
    """

    n: int
    omega_plus: float
    omega_minus: float
    cos_half: float
    sin_half: float


def symmetric_block(params: ModelParams, n: int) -> BlockCoefficients:
    """Closed-form block coefficients A_n, B_n, C_n of the symmetric model."""
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
    return BlockCoefficients(n=n, a=a, b=b, c=c)


def dressed_pair(block: BlockCoefficients) -> DressedPair:
    """Eigenvalues and Hopfield weights of one explicit 2x2 block."""
    plus, minus, cos_half, sin_half = _two_level(
        0.5 * (block.a + block.b), block.a - block.b, 2.0 * block.c
    )
    return DressedPair(
        n=block.n, omega_plus=plus, omega_minus=minus, cos_half=cos_half, sin_half=sin_half
    )


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
        pair = dressed_pair(block)
        c, s = pair.cos_half, math.copysign(pair.sin_half, block.c)
        freqs += [pair.omega_minus, pair.omega_plus]
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


@dataclass(frozen=True)
class KResonanceBlock:
    """One (k, n) block of the asymmetric polaron model.

    Spanned by (|left, n>, |right, n-k>); detuning = omega_c k - epsilon,
    coupling = Omega_(k,n).  valid is the printed applicability condition
    epsilon, omega_c > omega_d e^{-g^2/(2 omega_c^2)}.
    """

    k: int
    n: int
    center: float
    detuning: float
    coupling: float
    omega_plus: float
    omega_minus: float
    cos_half: float
    sin_half: float
    valid: bool


def k_resonance_block(params: ModelParams, k: int, n: int) -> KResonanceBlock:
    """Closed-form dressed block near the k-photon asymmetric resonance."""
    _two_level_check(params)
    if k < 1:
        raise ValueError(f"resonance order k must be >= 1, got {k}")
    if n < k:
        raise ValueError(f"block index n must be >= k, got n={n}, k={k}")
    detuning = params.omega_c * k - params.epsilon
    coupling = rabi_frequency(k, n, params)
    center = params.omega_c * (n - 0.5 * k)
    plus, minus, cos_half, sin_half = _two_level(center, detuning, coupling)
    scale = tunneling_suppression(params)
    return KResonanceBlock(
        k=k,
        n=n,
        center=center,
        detuning=detuning,
        coupling=coupling,
        omega_plus=plus,
        omega_minus=minus,
        cos_half=cos_half,
        sin_half=sin_half,
        valid=(params.epsilon > scale and params.omega_c > scale),
    )


def asymmetric_levels(params: ModelParams, k: int, n_levels: int) -> list[float]:
    """Lowest polaron-frame energies near the k-photon resonance.

    Ground level from the vacuum-block formula, unpaired |left, n> singles
    for 0 < n < k at omega_c n - epsilon/2 (their small diagonal dressing is
    neglected, as in the printed treatment), then the (k, n >= k) doublets.
    """
    if k < 1:
        raise ValueError(f"resonance order k must be >= 1, got {k}")
    levels = [ground_state_energy(params)]
    for n in range(1, k):
        levels.append(params.omega_c * n - 0.5 * params.epsilon)
    n_top = k + n_levels // 2 + 2
    for n in range(k, n_top + 1):
        block = k_resonance_block(params, k, n)
        levels.extend((block.omega_minus, block.omega_plus))
    return sorted(levels)[:n_levels]
