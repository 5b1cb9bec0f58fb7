"""Finite-dimensional density-matrix algebra and information measures.

Every state is block diagonal, a stack of K equal (b, b) blocks: the gas
holds one (L_k, R_k) block per doublet k, a gas (x) apparatus state one
(L_k, R_k) (x) (D_L, D_R) block per doublet, and a general dense state is
the single block K = 1.  Every function broadcasts over the block axis.
All entropies are in units of k_B with natural logarithms; "bits" are a
display concern.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .exceptions import StateError, TruncationError

__all__ = [
    "DensityMatrix",
    "BasisLabeling",
    "post_insertion_dm",
    "vn_entropy",
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
    """Hermitian, unit-trace, positive-semidefinite block-diagonal matrix.

    entries has shape (K, b, b); a (b, b) input is one block, real input
    stays real.  subsystem_dims, when set, declares the gas (x) demon
    factorization (d_gas, d_demon) of each block, gas index slowest.  The
    eigenvalues are computed once at construction (they double as the PSD
    check) and cached for entropy evaluations.
    """

    entries: np.ndarray
    subsystem_dims: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        m = np.asarray(self.entries)
        m = np.array(m, dtype=np.result_type(m, float), ndmin=3)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise StateError(f"density matrix blocks must be square, got shape {m.shape}")
        herm = float(np.max(np.abs(m - m.conj().transpose(0, 2, 1))))
        if herm > HERMITICITY_TOL:
            raise StateError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = complex(np.sum(np.trace(m, axis1=1, axis2=2)))
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateError(f"trace must be 1, got {tr}")
        if self.subsystem_dims is not None:
            dg, dd = self.subsystem_dims
            if dg * dd != m.shape[1]:
                raise StateError(
                    f"subsystem dims {self.subsystem_dims} do not factor block size {m.shape[1]}"
                )
        eigs = np.sort(np.linalg.eigvalsh(m), axis=None)
        if float(eigs[0]) < PSD_TOL:
            raise StateError(f"not positive semidefinite: min eigenvalue {eigs[0]:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "_eigs", eigs)

    @property
    def dim(self) -> int:
        """Dimension of the full matrix, K * b."""
        return self.entries.shape[0] * self.entries.shape[1]

    @property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of all blocks together, cached at construction."""
        return self._eigs


@dataclass(frozen=True)
class BasisLabeling:
    """Bookkeeping for the truncated localized basis.

    n_side doublets per side; the gas basis is one (L_k, R_k) block per
    doublet k = 1..n_side, so gas_dim = 2 n_side.
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


def post_insertion_dm(pairs, beta: float, coherences: bool = True) -> DensityMatrix:
    """Gas state after barrier insertion: one (L_k, R_k) block per doublet.

    pairs holds (E_k, delta_k) tuples.  For each doublet k with mean energy
    E_k and half-splitting delta_k the populations on L_k and R_k are
    w_k cosh(beta delta_k)/Z and the L_k<->R_k coherence is
    w_k sinh(beta delta_k)/Z, with w_k = e^(-beta E_k) and
    Z = 2 sum_k w_k cosh(beta delta_k).  coherences=False drops the sinh
    entries: that is the state an outcome-ignorant observer uses.
    """
    data = [tuple(map(float, p)) for p in pairs]
    if not data:
        raise ValueError("need at least one doublet")
    for e, d in data:
        if d < 0:
            raise ValueError(f"negative splitting {d}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    e0 = min(e for e, _ in data)
    w = np.array([math.exp(-beta * (e - e0)) for e, _ in data])
    wc = w * np.array([math.cosh(beta * d) for _, d in data])
    ws = w * np.array([math.sinh(beta * d) for _, d in data])
    z = 2.0 * float(np.sum(wc))
    c = wc / z
    s = ws / z if coherences else np.zeros_like(c)
    return DensityMatrix(np.stack([c, s, s, c], axis=-1).reshape(-1, 2, 2))


def vn_entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy -Tr rho ln rho in units of k_B (0 ln 0 := 0)."""
    w = np.clip(rho.eigenvalues, 0.0, None)
    w = w[w > 0.0]
    return max(float(-np.sum(w * np.log(w))), 0.0)


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Marginal of a bipartite state; keep is 'gas' or 'demon'.

    The gas marginal keeps the blocks; the demon marginal sums them into one.
    """
    if rho.subsystem_dims is None:
        raise StateError("partial trace needs declared subsystem_dims")
    dg, dd = rho.subsystem_dims
    t = rho.entries.reshape(-1, dg, dd, dg, dd)
    if keep == "gas":
        out = np.einsum("aijkj->aik", t)
    elif keep == "demon":
        out = np.einsum("aijil->jl", t)
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
    """(1/2)||P - Q||_1 in [0, 1] of two states with the same block shape."""
    if p.entries.shape != q.entries.shape:
        raise StateError(f"block shape mismatch: {p.entries.shape} vs {q.entries.shape}")
    w = np.linalg.eigvalsh(p.entries - q.entries)
    return 0.5 * float(np.sum(np.abs(w)))


def _product_blocks(rho_gas: DensityMatrix, rho_demon: DensityMatrix) -> np.ndarray:
    """(K, d_gas * d_demon, same) blocks of each gas block tensored with a one-block demon state."""
    if len(rho_demon.entries) != 1:
        raise StateError(f"demon factor must be a single block, got {len(rho_demon.entries)}")
    (k, dg, _), dd = rho_gas.entries.shape, rho_demon.entries.shape[1]
    joint = np.einsum("aik,jl->aijkl", rho_gas.entries, rho_demon.entries[0])
    return joint.reshape(k, dg * dd, dg * dd)


def product_dm(rho_gas: DensityMatrix, rho_demon: DensityMatrix) -> DensityMatrix:
    """Each gas block tensored with a one-block demon state; subsystem_dims records the split."""
    dims = (rho_gas.entries.shape[1], rho_demon.entries.shape[1])
    return DensityMatrix(_product_blocks(rho_gas, rho_demon), subsystem_dims=dims)
