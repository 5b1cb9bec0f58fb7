"""Two-state measuring apparatus: coupling, readoff bookkeeping, reset.

The apparatus has basis D_L = (1, 0), D_R = (0, 1) and starts in
D_0 = (D_L + D_R)/sqrt(2).
Coupling to the gas rotates the pointer by pi/4 in the D_L/D_R plane, with
the sense of rotation conditioned on which side of the barrier the molecule
occupies, so a gas state localized left drives D_0 -> D_L and one localized
right drives D_0 -> D_R.  The closed form of the unitary is

    U = cos(pi/4) 1 + sin(pi/4) (Pi_L - Pi_R) (x) J,   J = [[0, 1], [-1, 0]]

which is exp(-i H dt / hbar) for the coupling H = -delta (Pi_L - Pi_R) (x)
sigma_y at dt = pi hbar / (4 delta).  The readoff works only at that angle,
where delta and hbar cancel, so the apparatus has no coupling-strength
parameter.

U keeps each doublet's (L_k, R_k) (x) (D_L, D_R) block closed, so it is one
4x4 matrix applied to all blocks of a joint state at once (gas index
slowest, as in infodyn.DensityMatrix.subsystem_dims), and the readoff takes
only that layout.  Entropies are in k_B units throughout.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .exceptions import StateError
from .infodyn import (
    DensityMatrix,
    _derived,
    _entropy,
    _marginal,
    _product_blocks,
    _spectrum,
    partial_trace,
    product_dm,
    trace_distance,
    vn_entropy,
)

__all__ = [
    "DemonModel",
    "MeasurementRecord",
    "ReversalResult",
    "ResetCharge",
    "coupling_unitary",
    "premeasure",
    "reverse_readoff",
    "product_of_marginals",
    "reset_demon",
]

PRODUCT_TOL = 1e-10
RECOVERY_TOL = 1e-12


@dataclass(frozen=True)
class DemonModel:
    """Ready state D_0 of the apparatus in its pointer basis D_L, D_R; the
    coupling angle is fixed at pi/4, so it has no coupling-strength parameter."""

    @property
    def d0(self) -> np.ndarray:
        return np.array([1.0, 1.0]) / math.sqrt(2.0)

    @property
    def ready(self) -> DensityMatrix:
        """The ready pointer state |D_0><D_0|, one read-only instance per process."""
        return _ready()


@functools.cache
def _ready() -> DensityMatrix:
    # built on first use; the outer product, not a state filled with 0.5:
    # (1/sqrt 2)^2 rounds below it
    d0 = DemonModel().d0
    return DensityMatrix(np.outer(d0, d0))


@dataclass(frozen=True)
class MeasurementRecord:
    """Joint states and entropy bookkeeping across one readoff.

    demon_post is the apparatus marginal of post, the state the reset
    erases.  All deltas are post minus pre in k_B units.  The readoff is
    unitary, so the joint entropy does not move: ds_joint and balance_residual,
    |dI_mu - (dS_gas + dS_demon)|, are 0 by that invariance.
    """

    pre: DensityMatrix
    post: DensityMatrix
    demon_post: DensityMatrix
    ds_demon: float
    ds_gas: float
    ds_joint: float
    di_mu: float
    balance_residual: float


class ReversalResult(NamedTuple):
    """Outcome of undoing the readoff on a joint state.

    recovered is True when the result matches the record's pre state to
    RECOVERY_TOL in trace distance; distance holds the actual value.
    """

    recovered: bool
    distance: float


def coupling_unitary() -> np.ndarray:
    """Closed-form readoff unitary on one (L_k, R_k) (x) (D_L, D_R) block: real orthogonal,
    rotation by pi/4 in the pointer plane, sense set by the gas side; one read-only copy."""
    return _COUPLING


_COUPLING = math.cos(math.pi / 4.0) * (
    np.eye(4) + np.kron(np.diag([1.0, -1.0]), [[0.0, 1.0], [-1.0, 0.0]])
)
_COUPLING.setflags(write=False)


def _require_ready_product(p0: DensityMatrix, model: DemonModel) -> Tuple[np.ndarray, np.ndarray]:
    """Check p0 = rho_gas (x) D_0 and return its (gas, demon) marginal blocks."""
    if p0.subsystem_dims != (2, 2):
        raise StateError(f"readoff needs subsystem_dims (2, 2), got {p0.subsystem_dims}")
    d0 = model.ready.entries
    dem = _marginal(p0.entries, p0.subsystem_dims, "demon")
    if float(np.abs(dem - d0).max()) > PRODUCT_TOL:
        raise StateError("demon factor is not the ready state D_0")
    gas = _marginal(p0.entries, p0.subsystem_dims, "gas")
    if float(np.abs(p0.entries - _product_blocks(gas, d0)).max()) > PRODUCT_TOL:
        raise StateError("input is not a gas (x) D_0 product state")
    return gas, dem


def _g(u: np.ndarray) -> np.ndarray:
    """(1+u) ln(1+u) + (1-u) ln(1-u) as 2u atanh u + log1p(-u^2), and its limit 2 ln 2 at u >= 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(u < 1.0, 2.0 * u * np.arctanh(u) + np.log1p(-u * u), 2.0 * math.log(2.0))


def _dephasing_entropy(blocks: np.ndarray) -> float:
    """S(diag rho) - S(rho) over 2x2 blocks without subtracting entropies of order ln K.

    A block of weight 2m with diagonal m -+ h and eigenvalues m -+ r,
    r = hypot(h, |rho_01|), adds m [g(r/m) - g(|h|/m)]; one of weight 0 adds 0.
    """
    a, d = blocks[:, 0, 0].real, blocks[:, 1, 1].real
    keep = a + d > 0.0
    m, h = (a + d)[keep] / 2.0, np.abs(a - d)[keep] / 2.0
    r = np.hypot(h, np.abs(blocks[keep, 0, 1]))
    return max(float(np.sum(m * (_g(r / m) - _g(h / m)))), 0.0)


def premeasure(p0: DensityMatrix, model: DemonModel) -> MeasurementRecord:
    """Run the readoff unitary on a ready product state and take stock.

    p0 must be rho_gas (x) |D_0><D_0| with subsystem_dims (2, 2).  post
    inherits p0's spectrum.  The two sides' pointer states are orthogonal, so
    the readoff dephases each gas block: dS_gas is its relative entropy of
    coherence, in closed form; dS_demon comes from the pointer marginals.
    """
    gas_pre, dem_pre = _require_ready_product(p0, model)
    u = coupling_unitary()
    post = _derived(u @ p0.entries @ u.T, p0.eigenvalues, p0.subsystem_dims)
    dem_post = partial_trace(post, "demon")
    ds_gas = _dephasing_entropy(gas_pre)
    ds_demon = vn_entropy(dem_post) - _entropy(_spectrum(dem_pre))
    return MeasurementRecord(
        pre=p0,
        post=post,
        demon_post=dem_post,
        ds_demon=ds_demon,
        ds_gas=ds_gas,
        ds_joint=0.0,
        di_mu=ds_gas + ds_demon,
        balance_residual=0.0,
    )


def reverse_readoff(
    record: MeasurementRecord, state: Optional[DensityMatrix] = None
) -> ReversalResult:
    """Undo the readoff unitary and check recovery of the pre state.

    By default the record's own post state is reversed, which restores the
    pre state exactly.  Passing a different joint state (the dephased or
    marginal-product version, say) shows when the step has become
    irreversible: recovered comes back False with the residual trace
    distance.  The trace norm is unitarily invariant and post = U pre U^T,
    so the distance of U^T state U from pre is that of state from post,
    and no reversed state is built.
    """
    target = record.post if state is None else state
    dist = trace_distance(target, record.post)
    return ReversalResult(recovered=dist <= RECOVERY_TOL, distance=dist)


def product_of_marginals(p: DensityMatrix) -> DensityMatrix:
    """rho_gas (x) rho_demon built from p's own marginals.

    Same marginals as p, zero mutual information.  For the post-readoff
    state this is what an observer holding no record would write down.
    The two marginals are validated; the product inherits their spectra.
    """
    return product_dm(partial_trace(p, "gas"), partial_trace(p, "demon"))


class ResetCharge(NamedTuple):
    entropy: float
    free_energy: float


def reset_demon(demon_state: DensityMatrix, T: float = 1.0, k_B: float = 1.0) -> ResetCharge:
    """Erase the pointer back to D_0 and return the charge to the environment.

    Protocol: read the pointer, then rotate the definite outcome back to
    D_0.  The record of the outcome still exists afterwards and erasing it
    exports the demon's pre-reset entropy S to the environment, costing
    free energy k_B T S.  A demon already in a pure state erases nothing
    and costs nothing.  For the standard half-half mixture S = ln 2.
    """
    if demon_state.dim != 2:
        raise StateError(f"demon state must be two-level, got dim {demon_state.dim}")
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    s = vn_entropy(demon_state)
    return ResetCharge(entropy=s, free_energy=k_B * T * s)
