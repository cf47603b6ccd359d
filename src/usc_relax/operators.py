"""Model parameters, the displacement kernel and the Rabi Hamiltonians.

The library basis is the tensor product with the matter index slow and the
photon index fast: the product state |s, n> sits at row s * n_fock + n.
Energies are in units of a reference frequency (conventionally
omega_c = 1) and hbar = 1 throughout.

The Hamiltonian every subcommand solves is the lab-frame Rabi model as a
band matrix along its two parity chains (rabi_bands).  The one dense
builder here is the polaron-frame reference, build_polaron_rabi, written
block by block from the displacement matrix; the dense lab-frame matrix
and the Fock and spin operators it would take live with the test oracles.

The displacement kernel exp[x(a - a^dag)] is evaluated through the
associated-Laguerre closed form with log-space factorial ratios, so single
matrix elements are available without building or exponentiating matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Hard cap on the dimension of a dense dim x dim operator (build_polaron_rabi);
# a dense matrix beyond this is almost certainly a mistake upstream.  Band
# solves (rabi_bands) form no dense matrix and take any n_fock.
DIM_CAP = 4096


def default_n_fock(g: float, omega_c: float = 1.0) -> int:
    """Fock truncation adequate for the low spectrum at coupling g.

    Polaron-displaced states occupy <a^dag a> ~ (g/omega_c)^2, so the
    cutoff has to grow quadratically with the coupling.
    """
    return int(math.ceil(4.0 * (g / omega_c) ** 2 + 40.0))


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the asymmetric quantum Rabi / extended Dicke model.

    epsilon is the parity-breaking dipole asymmetry; spin_n is the N of the
    spin-N/2 matter system (N = 1 recovers the two-level Rabi model).
    """

    omega_c: float = 1.0
    omega_d: float = 1.0
    g: float = 0.0
    epsilon: float = 0.0
    n_fock: int = 40
    spin_n: int = 1

    def __post_init__(self):
        if self.omega_c <= 0.0:
            raise ValueError(f"omega_c must be positive, got {self.omega_c}")
        if self.omega_d < 0.0:
            raise ValueError(f"omega_d must be non-negative, got {self.omega_d}")
        if self.n_fock < 2:
            raise ValueError(f"n_fock must be at least 2, got {self.n_fock}")
        if self.spin_n < 1:
            raise ValueError(f"spin_n must be a positive integer, got {self.spin_n}")

    @classmethod
    def auto(cls, **kwargs) -> "ModelParams":
        """Construct with the default coupling-dependent Fock truncation."""
        p = cls(**{k: v for k, v in kwargs.items() if k != "n_fock"})
        return replace(p, n_fock=default_n_fock(p.g, p.omega_c))

    @property
    def dim(self) -> int:
        return (self.spin_n + 1) * self.n_fock


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense square operator with its dimension and a provenance label."""

    dim: int
    entries: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.entries.shape != (self.dim, self.dim):
            raise ValueError(
                f"entries shape {self.entries.shape} inconsistent with dim {self.dim}"
            )

    def hermiticity_defect(self) -> float:
        """Relative Frobenius asymmetry ||H - H^dag|| / ||H||."""
        norm = np.linalg.norm(self.entries)
        if norm == 0.0:
            return 0.0
        return np.linalg.norm(self.entries - self.entries.conj().T) / norm


def _op(entries: np.ndarray, label: str) -> OperatorMatrix:
    return OperatorMatrix(dim=entries.shape[0], entries=entries, label=label)


# ---------------------------------------------------------------------------
# Laguerre / displacement kernel
# ---------------------------------------------------------------------------

def laguerre(n: int, alpha: int, x: float) -> float:
    """Generalized Laguerre polynomial L_n^(alpha)(x), upward recurrence.

    The three-term recurrence
        (k+1) L_{k+1} = (2k + 1 + alpha - x) L_k - (k + alpha) L_{k-1}
    is numerically benign for the moderate n, alpha, x >= 0 used here.
    """
    if n < 0:
        raise ValueError(f"degree n must be non-negative, got {n}")
    if alpha < 0:
        raise ValueError(f"order alpha must be non-negative, got {alpha}")
    if n == 0:
        return 1.0
    prev = 1.0
    cur = 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def _fact_ratio_sqrt(small: int, large: int) -> float:
    """sqrt(small! / large!) in log space; exact for small = large."""
    return math.exp(0.5 * (math.lgamma(small + 1) - math.lgamma(large + 1)))


def displacement_element(n: int, m: int, x: float) -> float:
    """<n| exp[x (a - a^dag)] |m> from the Laguerre closed form.

    The operator is real and unitary; with k = n - m >= 0 the element is
    (-x)^k sqrt(m!/n!) e^{-x^2/2} L_m^{(k)}(x^2), and the transpose picks up
    (-1)^k.  Note the sign: exp[x(a - a^dag)] displaces by -x in the usual
    D(alpha) convention, so lower-triangular elements carry (-1)^(n-m)
    relative to the unsigned kernel tabulated for the multi-photon coupling.
    """
    if n < 0 or m < 0:
        raise ValueError(f"Fock labels must be non-negative, got ({n}, {m})")
    lo, hi = (m, n) if n >= m else (n, m)
    k = hi - lo
    mag = (
        abs(x) ** k
        * _fact_ratio_sqrt(lo, hi)
        * math.exp(-0.5 * x * x)
        * laguerre(lo, k, x * x)
    )
    if n >= m:
        sign = (-1.0) ** k if x >= 0.0 else 1.0
    else:
        sign = 1.0 if x >= 0.0 else (-1.0) ** k
    return sign * mag


def displacement_matrix(n_fock: int, x: float) -> OperatorMatrix:
    """Dense exp[x (a - a^dag)] on the truncated Fock space.

    Assembled diagonal-by-diagonal from the closed form with the Laguerre
    recurrence vectorized over the diagonal offset, O(n_fock^2) total.
    """
    if n_fock < 1:
        raise ValueError(f"n_fock must be positive, got {n_fock}")
    xs = x * x
    d = np.zeros((n_fock, n_fock))
    pref = math.exp(-0.5 * xs)
    alphas = np.arange(n_fock, dtype=float)  # diagonal offset k
    # L_m^{(k)}(xs) for all k at fixed m, iterated upward in m.
    prev = np.ones(n_fock)
    cur = 1.0 + alphas - xs
    lg = np.cumsum(np.log(np.maximum(np.arange(n_fock, dtype=float), 1.0)))  # log m!
    for m_lo in range(n_fock):
        lag = prev if m_lo == 0 else cur
        if m_lo >= 1:
            k = m_lo  # recurrence step index
            prev, cur = cur, ((2 * k + 1 + alphas - xs) * cur - (k + alphas) * prev) / (k + 1)
        ks = np.arange(n_fock - m_lo)
        his = m_lo + ks
        ratio = np.exp(0.5 * (lg[m_lo] - lg[his]))
        vals = (abs(x) ** ks) * ratio * pref * lag[: n_fock - m_lo]
        alternating = np.where(ks % 2 == 0, 1.0, -1.0)
        lower_signs = alternating if x >= 0.0 else 1.0
        upper_signs = 1.0 if x >= 0.0 else alternating
        d[his, m_lo] = lower_signs * vals  # n = m_lo + k >= m = m_lo
        d[m_lo, his] = upper_signs * vals
    return _op(d.astype(complex), f"D({x})")


# ---------------------------------------------------------------------------
# Hamiltonian builders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandOperator:
    """Real symmetric band matrix in LAPACK lower storage, with its basis map.

    bands[k, j] = H[j + k, j] in the operator's own row order; row r of the
    library's matter-slow basis is row to_library[r] of that order.  The
    slots where j + k runs past the last row hold the couplings H[j + k, j]
    of the untruncated operator out of the block (zero where there are
    none): no solve uses them, and the truncation certificate takes its
    residual through them.
    """

    dim: int
    bands: np.ndarray       # (half-bandwidth + 1, dim)
    to_library: np.ndarray  # (dim,) int
    label: str = ""


def rabi_bands(params: ModelParams) -> BandOperator:
    """Lab-frame asymmetric Rabi Hamiltonian for spin_n = 1, as a band matrix.

    H = omega_c a^dag a + omega_d s_z + epsilon s_x + g (a + a^dag) s_x.
    The rows run along the two parity chains: row 2 n + c holds |n, s> with
    s = (n + c) mod 2 (s = 0 for s_z = +1/2).  The coupling g keeps a chain
    and steps n by one (offset 2), epsilon flips s at fixed n and so links
    the chains (offset 1): the half-bandwidth is 2.  The library's
    matter-slow row s * n_fock + n maps to band row 2 n + (n + s) mod 2.
    The two slots past the last row, bands[2, -2:], hold g sqrt(N) / 2, the
    coupling of photon N - 1 to the dropped photon N = n_fock.  Built in
    O(n_fock); the photon numbers on the diagonal are exact integers.
    """
    if params.spin_n != 1:
        raise ValueError("the Rabi model is the two-level model; spin_n > 1 has no band builder")
    n_fock = params.n_fock
    n = np.arange(n_fock, dtype=float)
    zeeman = np.where(n % 2 == 0, 0.5, -0.5) * params.omega_d   # omega_d s_z on chain 0
    bands = np.zeros((3, 2 * n_fock))
    bands[0, 0::2] = params.omega_c * n + zeeman
    bands[0, 1::2] = params.omega_c * n - zeeman
    bands[1, 0::2] = 0.5 * params.epsilon      # |n, 1 - s><n, s|, across the chains
    bands[2] = 0.5 * params.g * np.repeat(np.sqrt(n + 1.0), 2)   # |n + 1, 1 - s><n, s|
    s, m = np.divmod(np.arange(2 * n_fock), n_fock)   # library row s * n_fock + m
    to_library = 2 * m + (m + s) % 2
    return BandOperator(dim=2 * n_fock, bands=bands, to_library=to_library, label="H_rabi")


def polaron_constant(params: ModelParams) -> float:
    """c-number (g^2/omega_c) <S_x^2> = g^2 N (... ) generated by the polaron map.

    For spin-1/2 this is g^2/(4 omega_c): the polaron transform of the Rabi
    Hamiltonian produces -g^2/(4 omega_c) * identity, which the closed-form
    block expressions (and the extended-model Hamiltonian, where the S_x^2
    term cancels it) implicitly absorb.  Energies quoted in that convention
    sit above the lab-frame Rabi spectrum by exactly this constant.
    """
    return params.g**2 / (4.0 * params.omega_c)


def build_polaron_rabi(params: ModelParams) -> OperatorMatrix:
    """Polaron-frame Rabi Hamiltonian, a real matrix with the lab-frame spectrum.

    H = omega_c a^dag a + epsilon s_x
        + (omega_d/2) [D(g/omega_c) s_+^x + D^dag(g/omega_c) s_-^x]
        - g^2/(4 omega_c),
    with s_pm^x = s_z +- i s_y the ladder operators along the s_x axis and D
    the real displacement matrix.  In the matter-slow basis it is the 2 x 2
    block of n_fock x n_fock blocks
        [[omega_c N + (omega_d/4)(D + D^T) - c, (epsilon/2) 1 + (omega_d/4)(D - D^T)],
         [(epsilon/2) 1 - (omega_d/4)(D - D^T), omega_c N - (omega_d/4)(D + D^T) - c]],
    with N = diag(n) and c = g^2/(4 omega_c), exactly symmetric.  The
    trailing constant keeps the spectrum identical to the lab frame (the
    transform of omega_c a^dag a + g(a+a^dag)s_x leaves it behind).  No
    production path solves it; it is the dense frame-equivalence reference.
    """
    if params.spin_n != 1:
        raise ValueError("build_polaron_rabi is the two-level model")
    if params.dim > DIM_CAP:
        raise ValueError(f"requested dimension {params.dim} exceeds the dense cap {DIM_CAP}")
    d = displacement_matrix(params.n_fock, params.g / params.omega_c).entries.real
    even = 0.25 * params.omega_d * (d + d.T)
    odd = 0.25 * params.omega_d * (d - d.T)
    diagonal = np.diag(params.omega_c * np.arange(params.n_fock) - polaron_constant(params))
    flip = 0.5 * params.epsilon * np.eye(params.n_fock)
    h = np.block([[diagonal + even, flip + odd], [flip - odd, diagonal - even]])
    return _op(h, "H_rabi_polaron")
