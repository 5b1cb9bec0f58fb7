"""Finite-dimensional density-matrix algebra: states, marginals, products, distances.

Every state is block diagonal, a stack of K equal (b, b) blocks: the gas
holds one (L_k, R_k) block per doublet k, a gas (x) apparatus state one
(L_k, R_k) (x) (D_L, D_R) block per doublet, and a general dense state is
the single block K = 1.  Every function broadcasts over the block axis.
A state is checked only where it enters: the DensityMatrix constructor
gates a state handed in from outside, its spectrum solved by LAPACK.  A
state the package builds skips the gate (_derived): the gas state from
thermo._doublet_weights, whose blocks are Hermitian with c_k >= |s_k| and
unit total trace by construction, and every marginal, product or unitary
image of a state.  Marginals that only feed the readoff stay plain arrays.
No entropy is taken here: demon books the readoff's, in k_B units.

This is the layer that builds states, so it imports numpy at load; nothing
imports it before a state is needed.  The gas state is built (_gas) from
the weights thermo._doublet_weights takes as floats, the ones the readoff
books from.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .exceptions import StateError
from .thermo import _doublet_weights

__all__ = [
    "DensityMatrix",
    "post_insertion_dm",
    "partial_trace",
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
    factorization (d_gas, d_demon) of each block, gas index slowest.  One
    Hermiticity pass, which a non-finite entry fails, then one LAPACK
    spectrum of all blocks for the trace and PSD gates.  A state the
    package builds skips both (_derived).
    """

    entries: np.ndarray
    subsystem_dims: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        m = np.asarray(self.entries)
        m = np.array(m, dtype=np.result_type(m, float), ndmin=3)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise StateError(f"density matrix blocks must be square, got shape {m.shape}")
        adj = m.conj() if np.iscomplexobj(m) else m
        with np.errstate(invalid="ignore"):  # NaN or inf -> NaN, which fails `not <=`
            herm = float(np.abs(m - adj.transpose(0, 2, 1)).max())
        if not herm <= HERMITICITY_TOL:
            raise StateError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        eigs = np.linalg.eigvalsh(m)
        tr = float(eigs.sum())
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise StateError(f"trace must be 1, got {tr}")
        dims = self.subsystem_dims
        if dims is not None and dims[0] * dims[1] != m.shape[1]:
            raise StateError(f"subsystem dims {dims} do not factor block size {m.shape[1]}")
        if not (low := float(eigs.min())) >= PSD_TOL:
            raise StateError(f"not positive semidefinite: min eigenvalue {low:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


def post_insertion_dm(pairs, beta: float, coherences: bool = True) -> DensityMatrix:
    """Gas state after barrier insertion: one (L_k, R_k) block per doublet.

    pairs holds (E_k, delta_k) rows, as tuples or an (n, 2) array.  For
    each doublet k with mean energy E_k and half-splitting delta_k the
    populations on L_k and R_k are w_k cosh(beta delta_k)/Z and the
    L_k<->R_k coherence is w_k sinh(beta delta_k)/Z, with w_k = e^(-beta E_k)
    and Z = 2 sum_k w_k cosh(beta delta_k), by thermo._doublet_weights.
    coherences=False drops the sinh entries: the state of an outcome-ignorant
    observer.  Non-finite input is refused but for E_k = +inf, of no weight.
    """
    data = np.asarray(pairs, dtype=float)
    if not data.size:
        raise ValueError("need at least one doublet")
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"pairs must be (E_k, delta_k) rows, got shape {data.shape}")
    e, d = data.T
    bad = np.isnan(e) | (e == -np.inf) | ~np.isfinite(d)
    if np.any(bad) or not np.isfinite(e).any():
        raise ValueError(f"doublet row {tuple(data[np.argmax(bad)].tolist())} is not finite "
                         "(E_k may be +inf, but not in every row)")
    if np.any(d < 0):
        raise ValueError(f"negative splitting {float(d[np.argmax(d < 0)])}")
    if not 0.0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return _gas(*_doublet_weights(data.tolist(), beta, coherences))


def _gas(c, s) -> DensityMatrix:
    """The gas state, with thermo._doublet_weights' populations c_k and coherences s_k."""
    c, s = np.array(c), np.array(s)
    return _derived(np.stack([c, s, s, c], axis=-1).reshape(-1, 2, 2))


def _derived(entries: np.ndarray, subsystem_dims=None) -> DensityMatrix:
    """A state the package built, which skips the gate."""
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "entries", entries)
    object.__setattr__(rho, "subsystem_dims", subsystem_dims)
    entries.setflags(write=False)
    return rho


def _marginal(entries: np.ndarray, dims: Tuple[int, int], keep: str) -> np.ndarray:
    """Blocks of the gas marginal, or the demon marginal as one block; unvalidated."""
    if keep not in ("gas", "demon"):
        raise ValueError(f"keep must be 'gas' or 'demon', got {keep!r}")
    t = entries.reshape(-1, dims[0], dims[1], dims[0], dims[1])
    return np.einsum("aijkj->aik", t) if keep == "gas" else np.einsum("aijil->jl", t)[None]


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Marginal of a bipartite state; keep is 'gas' or 'demon'.

    The gas marginal keeps the blocks; the demon marginal sums them into one.
    Derived from rho, so not validated again (_derived).
    """
    if rho.subsystem_dims is None:
        raise StateError("partial trace needs declared subsystem_dims")
    return _derived(_marginal(rho.entries, rho.subsystem_dims, keep))


def trace_distance(p: DensityMatrix, q: DensityMatrix) -> float:
    """(1/2)||P - Q||_1 in [0, 1] of two states with the same block shape."""
    if p.entries.shape != q.entries.shape:
        raise StateError(f"block shape mismatch: {p.entries.shape} vs {q.entries.shape}")
    w = np.linalg.eigvalsh(p.entries - q.entries)
    return 0.5 * float(np.sum(np.abs(w)))


def _product_blocks(gas: np.ndarray, demon: np.ndarray) -> np.ndarray:
    """(K, d_gas * d_demon, same) blocks of each gas block tensored with a one-block demon state."""
    if len(demon) != 1:
        raise StateError(f"demon factor must be a single block, got {len(demon)}")
    (k, dg, _), dd = gas.shape, demon.shape[1]
    joint = np.einsum("aik,jl->aijkl", gas, demon[0])
    return joint.reshape(k, dg * dd, dg * dd)


def product_dm(rho_gas: DensityMatrix, rho_demon: DensityMatrix) -> DensityMatrix:
    """Each gas block tensored with a one-block demon state; subsystem_dims records the split."""
    dims = (rho_gas.entries.shape[1], rho_demon.entries.shape[1])
    return _derived(_product_blocks(rho_gas.entries, rho_demon.entries), dims)
