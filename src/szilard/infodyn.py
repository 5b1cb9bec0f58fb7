"""Finite-dimensional density-matrix algebra and information measures.

States live on a truncated gas space spanned by localized doublet states
(ordered L_1..L_N, R_1..R_N), optionally tensored with a two-level
apparatus (ordered D_L, D_R; gas index varies slowest).  All entropies are
in units of k_B with natural logarithms; "bits" are a display concern.

Information is defined relative to the declared truncated dimension,
I = ln(dim) - S.  The absolute number therefore carries a truncation
offset; every physical statement downstream uses only differences of I,
which are offset-free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .exceptions import StateError, TruncationError
from .spectral import SplitPair, Spectrum

__all__ = [
    "DensityMatrix",
    "BasisLabeling",
    "thermal_dm",
    "post_insertion_dm",
    "conditional_dm",
    "vn_entropy",
    "information",
    "partial_trace",
    "mutual_information",
    "trace_distance",
    "product_dm",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = -1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix.

    subsystem_dims, when set, declares a gas (x) demon factorization
    (d_gas, d_demon) with the gas index varying slowest.  The eigenvalues
    are computed once at construction (they double as the PSD check) and
    cached for entropy evaluations.
    """

    entries: np.ndarray
    subsystem_dims: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StateError(f"density matrix must be square, got shape {m.shape}")
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > HERMITICITY_TOL:
            raise StateError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateError(f"trace must be 1, got {tr}")
        if self.subsystem_dims is not None:
            dg, dd = self.subsystem_dims
            if dg * dd != m.shape[0]:
                raise StateError(
                    f"subsystem dims {self.subsystem_dims} do not factor dimension {m.shape[0]}"
                )
        eigs = np.linalg.eigvalsh(m)
        if float(eigs[0]) < PSD_TOL:
            raise StateError(f"not positive semidefinite: min eigenvalue {eigs[0]:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "_eigs", eigs)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, cached at construction."""
        return self._eigs


@dataclass(frozen=True)
class BasisLabeling:
    """Bookkeeping for the truncated localized basis.

    n_side doublets per side; the gas basis is ordered L_1..L_N, R_1..R_N.
    The truncation criterion n_side^2 * eps * beta >= 20 guarantees the
    discarded thermal weight is negligible for every state built here.
    """

    n_side: int
    eps_beta: float

    def __post_init__(self):
        if self.n_side < 1:
            raise ValueError(f"n_side must be >= 1, got {self.n_side}")
        if self.eps_beta <= 0:
            raise ValueError(f"eps_beta must be positive, got {self.eps_beta}")
        crit = self.n_side**2 * self.eps_beta
        if crit < 20.0:
            raise TruncationError(
                f"truncation too small: n_side^2 * eps * beta = {crit:.3g} < 20"
            )

    @property
    def gas_dim(self) -> int:
        return 2 * self.n_side


def thermal_dm(levels: Spectrum, beta: float) -> DensityMatrix:
    """Canonical state rho = Z^-1 sum_n e^(-beta E_n) |n><n| on the given levels.

    Diagonal in the energy basis of the spectrum.  Raises TruncationError
    when the weight beyond the truncation (estimated by continuing the last
    level gap geometrically) exceeds 1e-10 of Z.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    e = levels.energies
    w = np.exp(-beta * (e - e[0]))
    z = float(np.sum(w))
    if len(e) > 1:
        gap = float(e[-1] - e[-2])
        ratio = math.exp(-beta * gap) if gap > 0 else 1.0
        if ratio >= 1.0:
            raise TruncationError("spectrum top is degenerate; cannot bound the tail")
        tail = float(w[-1]) * ratio / (1.0 - ratio)
        if tail > 1e-10 * z:
            raise TruncationError(
                f"discarded weight ~{tail / z:.3e} of Z exceeds 1e-10; add levels"
            )
    return DensityMatrix(np.diag(w / z))


def _pair_data(pairs) -> list:
    out = []
    for p in pairs:
        if isinstance(p, SplitPair):
            out.append((p.energy, p.delta))
        else:
            e, d = p
            out.append((float(e), float(d)))
    if not out:
        raise ValueError("need at least one doublet")
    for e, d in out:
        if d < 0:
            raise ValueError(f"negative splitting {d}")
    return out


def post_insertion_dm(pairs, beta: float, coherences: bool = True) -> DensityMatrix:
    """Gas state after barrier insertion, in the localized basis.

    For each doublet k with mean energy E_k and half-splitting delta_k the
    populations on L_k and R_k are w_k cosh(beta delta_k)/Z and the L_k<->R_k
    coherence is w_k sinh(beta delta_k)/Z, with w_k = e^(-beta E_k) and
    Z = 2 sum_k w_k cosh(beta delta_k).  coherences=False drops the sinh
    entries: that is the state an outcome-ignorant observer uses.
    """
    data = _pair_data(pairs)
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    n = len(data)
    e0 = min(e for e, _ in data)
    w = np.array([math.exp(-beta * (e - e0)) for e, _ in data])
    ch = np.array([math.cosh(beta * d) for _, d in data])
    sh = np.array([math.sinh(beta * d) for _, d in data])
    z = 2.0 * float(np.sum(w * ch))
    m = np.zeros((2 * n, 2 * n))
    diag = w * ch / z
    m[np.arange(n), np.arange(n)] = diag
    m[np.arange(n, 2 * n), np.arange(n, 2 * n)] = diag
    if coherences:
        off = w * sh / z
        m[np.arange(n), np.arange(n, 2 * n)] = off
        m[np.arange(n, 2 * n), np.arange(n)] = off
    return DensityMatrix(m)


def conditional_dm(pairs, beta: float, side: str) -> DensityMatrix:
    """Post-measurement gas state given the molecule is on `side` (L or R).

    Supported entirely on that side's localized states with populations
    w_k cosh(beta delta_k) / Z_side, Z_side = sum_k w_k cosh(beta delta_k).
    """
    if side not in ("L", "R"):
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    data = _pair_data(pairs)
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    n = len(data)
    e0 = min(e for e, _ in data)
    w = np.array([math.exp(-beta * (e - e0)) for e, _ in data])
    ch = np.array([math.cosh(beta * d) for _, d in data])
    pop = w * ch / float(np.sum(w * ch))
    m = np.zeros((2 * n, 2 * n))
    offset = 0 if side == "L" else n
    idx = np.arange(n) + offset
    m[idx, idx] = pop
    return DensityMatrix(m)


def vn_entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy -Tr rho ln rho in units of k_B (0 ln 0 := 0)."""
    w = np.clip(rho.eigenvalues, 0.0, None)
    w = w[w > 0.0]
    return max(float(-np.sum(w * np.log(w))), 0.0)


def information(rho: DensityMatrix) -> float:
    """I = ln(dim) - S relative to the state's truncated space."""
    return math.log(rho.dim) - vn_entropy(rho)


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Marginal of a bipartite state; keep is 'gas' or 'demon'."""
    if rho.subsystem_dims is None:
        raise StateError("partial trace needs declared subsystem_dims")
    dg, dd = rho.subsystem_dims
    t = rho.entries.reshape(dg, dd, dg, dd)
    if keep == "gas":
        out = np.einsum("ijkj->ik", t)
    elif keep == "demon":
        out = np.einsum("ijil->jl", t)
    else:
        raise ValueError(f"keep must be 'gas' or 'demon', got {keep!r}")
    return DensityMatrix(out)


def mutual_information(rho: DensityMatrix) -> float:
    """I_mu = S(gas) + S(demon) - S(joint), in units of k_B.

    Nonnegative up to numerical noise; exactly zero on product states.
    """
    s_gas = vn_entropy(partial_trace(rho, "gas"))
    s_demon = vn_entropy(partial_trace(rho, "demon"))
    return _mutual_information(s_gas, s_demon, vn_entropy(rho))


def _mutual_information(s_gas: float, s_demon: float, s_joint: float) -> float:
    """S(gas) + S(demon) - S(joint) from the three entropies; raises if negative."""
    val = s_gas + s_demon - s_joint
    if val < -1e-10:
        raise StateError(f"mutual information came out {val:.3e} < 0")
    return val


def trace_distance(p: DensityMatrix, q: DensityMatrix) -> float:
    """(1/2)||P - Q||_1 from the eigenvalues of the difference; in [0, 1]."""
    if p.dim != q.dim:
        raise StateError(f"dimension mismatch: {p.dim} vs {q.dim}")
    w = np.linalg.eigvalsh(p.entries - q.entries)
    return 0.5 * float(np.sum(np.abs(w)))


def product_dm(rho_gas: DensityMatrix, rho_demon: DensityMatrix) -> DensityMatrix:
    """Tensor product with the factorization recorded in subsystem_dims."""
    return DensityMatrix(
        np.kron(rho_gas.entries, rho_demon.entries),
        subsystem_dims=(rho_gas.dim, rho_demon.dim),
    )
