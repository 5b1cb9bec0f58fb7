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

U keeps each doublet's (L_k, R_k) (x) (D_L, D_R) block closed, so it is built
for one block and applied to all blocks of a joint state at once (gas index
slowest, as in infodyn.DensityMatrix.subsystem_dims).  Entropies are in k_B
units throughout.
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
    _entropy,
    _marginal,
    _mutual_information,
    _product_blocks,
    _spectrum,
    partial_trace,
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
    # built on first use, so a process that runs no readoff never calls eigvalsh;
    # the outer product, not a state filled with 0.5: (1/sqrt 2)^2 rounds below it
    d0 = DemonModel().d0
    return DensityMatrix(np.outer(d0, d0))


@dataclass(frozen=True)
class MeasurementRecord:
    """Joint states and entropy bookkeeping across one readoff.

    demon_post is the apparatus marginal of post, the state the reset
    erases.  All deltas are post minus pre in k_B units.  balance_residual
    is |dI_mu - (dS_gas + dS_demon)|; a unitary readoff keeps the joint
    entropy fixed, so the residual is numerical noise.
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


def coupling_unitary(gas_dim: int) -> np.ndarray:
    """Closed-form readoff unitary on one gas (x) demon block.

    gas_dim is the gas size of one block, left states first.  Real
    orthogonal: rotation by pi/4 in the pointer plane, sense set by the
    gas side.  Built once per gas_dim and returned read-only.
    """
    if gas_dim < 2 or gas_dim % 2:
        raise ValueError(f"gas_dim must be even and >= 2, got {gas_dim}")
    return _coupling_unitary(gas_dim)


@functools.cache
def _coupling_unitary(gas_dim: int) -> np.ndarray:
    n = gas_dim // 2
    c = s = math.cos(math.pi / 4.0)
    p = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    u = c * np.eye(2 * gas_dim) + s * np.kron(p, j)
    u.setflags(write=False)
    return u


def _require_ready_product(p0: DensityMatrix, model: DemonModel) -> Tuple[np.ndarray, np.ndarray]:
    """Check p0 = rho_gas (x) D_0 and return its (gas, demon) marginal blocks."""
    if p0.subsystem_dims is None:
        raise StateError("joint state must declare subsystem_dims")
    dg, dd = p0.subsystem_dims
    if dd != 2:
        raise StateError(f"demon factor must be two-level, got {dd}")
    if dg % 2:
        raise StateError(f"gas factor must pair left and right states, got dim {dg}")
    d0 = model.ready.entries
    dem = _marginal(p0.entries, p0.subsystem_dims, "demon")
    if float(np.abs(dem - d0).max()) > PRODUCT_TOL:
        raise StateError("demon factor is not the ready state D_0")
    gas = _marginal(p0.entries, p0.subsystem_dims, "gas")
    if float(np.abs(p0.entries - _product_blocks(gas, d0)).max()) > PRODUCT_TOL:
        raise StateError("input is not a gas (x) D_0 product state")
    return gas, dem


def premeasure(p0: DensityMatrix, model: DemonModel) -> MeasurementRecord:
    """Run the readoff unitary on a ready product state and take stock.

    p0 must be rho_gas (x) |D_0><D_0| with subsystem_dims declared.  The
    post state carries full gas-demon correlations; marginal entropies and
    the mutual-information delta are recorded.  It builds two states, post
    and its pointer marginal; the other three marginals only give entropies.
    """
    gas_pre, dem_pre = _require_ready_product(p0, model)
    dims = p0.subsystem_dims
    u = coupling_unitary(dims[0])
    post = DensityMatrix(u @ p0.entries @ u.T, subsystem_dims=dims)
    dem_post = partial_trace(post, "demon")
    s_pre, s_post, sd_post = vn_entropy(p0), vn_entropy(post), vn_entropy(dem_post)
    gas_post = _marginal(post.entries, dims, "gas")
    sg_pre, sd_pre, sg_post = (_entropy(_spectrum(b)) for b in (gas_pre, dem_pre, gas_post))
    di = _mutual_information(sg_post, sd_post, s_post) - _mutual_information(
        sg_pre, sd_pre, s_pre
    )
    ds_gas = sg_post - sg_pre
    ds_demon = sd_post - sd_pre
    return MeasurementRecord(
        pre=p0,
        post=post,
        demon_post=dem_post,
        ds_demon=ds_demon,
        ds_gas=ds_gas,
        ds_joint=s_post - s_pre,
        di_mu=di,
        balance_residual=abs(di - (ds_gas + ds_demon)),
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
    Only the product is validated: p's marginals are plain blocks.
    """
    if p.subsystem_dims is None:
        raise StateError("product of marginals needs declared subsystem_dims")
    gas, demon = (_marginal(p.entries, p.subsystem_dims, keep) for keep in ("gas", "demon"))
    return DensityMatrix(_product_blocks(gas, demon), subsystem_dims=p.subsystem_dims)


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
