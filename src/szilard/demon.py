"""Two-state measuring apparatus: coupling, readoff bookkeeping, reset.

The apparatus has basis D_L, D_R and starts in D_0 = (D_L + D_R)/sqrt(2).
Coupling to the gas rotates the pointer by pi/4 in the D_L/D_R plane, with
the sense of rotation conditioned on which side of the barrier the molecule
occupies, so a gas state localized left drives D_0 -> D_L and one localized
right drives D_0 -> D_R.  The closed form of the unitary is

    U = cos(pi/4) 1 + sin(pi/4) (Pi_L - Pi_R) (x) J,   J = [[0, 1], [-1, 0]]

which is the exact exponential exp(-i H dt / hbar) of the coupling
H = -delta (Pi_L - Pi_R) (x) sigma_y at dt = pi hbar / (4 delta).

U keeps each doublet's (L_k, R_k) (x) (D_L, D_R) block closed, so it is built
for one block and applied to all blocks of a joint state at once (gas index
slowest, as in infodyn.DensityMatrix.subsystem_dims).  Entropies are in k_B
units throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .exceptions import StateError
from .infodyn import (
    DensityMatrix,
    _mutual_information,
    _product_blocks,
    partial_trace,
    product_dm,
    trace_distance,
    vn_entropy,
)

__all__ = [
    "DemonModel",
    "MeasurementRecord",
    "ReversalResult",
    "EnvironmentLedger",
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
    """Coupling strength and pointer basis of the apparatus.

    dt is not a free parameter: the readoff works only when the rotation
    angle delta*dt/hbar is exactly pi/4.
    """

    delta: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")

    @property
    def dt(self) -> float:
        return math.pi * self.hbar / (4.0 * self.delta)

    @property
    def d_left(self) -> np.ndarray:
        return np.array([1.0, 0.0])

    @property
    def d_right(self) -> np.ndarray:
        return np.array([0.0, 1.0])

    @property
    def d0(self) -> np.ndarray:
        return np.array([1.0, 1.0]) / math.sqrt(2.0)

    @property
    def ready(self) -> DensityMatrix:
        """The ready pointer state |D_0><D_0|."""
        return DensityMatrix(np.outer(self.d0, self.d0))


@dataclass(frozen=True)
class MeasurementRecord:
    """Joint states and entropy bookkeeping across one readoff.

    All deltas are post minus pre in k_B units.  balance_residual is
    |dI_mu - (dS_gas + dS_demon)|; a unitary readoff keeps the joint
    entropy fixed, so the residual is numerical noise.
    """

    model: DemonModel
    pre: DensityMatrix
    post: DensityMatrix
    ds_demon: float
    ds_gas: float
    ds_joint: float
    di_mu: float
    balance_residual: float


class ReversalResult(NamedTuple):
    """Outcome of undoing the readoff: U^dag applied to a joint state.

    recovered is True when the result matches the record's pre state to
    RECOVERY_TOL in trace distance; distance holds the actual value.
    """

    state: DensityMatrix
    recovered: bool
    distance: float


def coupling_unitary(model: DemonModel, gas_dim: int) -> np.ndarray:
    """Closed-form readoff unitary on one gas (x) demon block.

    gas_dim is the gas size of one block, left states first.  Real
    orthogonal: rotation by pi/4 in the pointer plane, sense set by the
    gas side.
    """
    if gas_dim < 2 or gas_dim % 2:
        raise ValueError(f"gas_dim must be even and >= 2, got {gas_dim}")
    n = gas_dim // 2
    c = s = math.cos(math.pi / 4.0)
    p = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return c * np.eye(2 * gas_dim) + s * np.kron(p, j)


def _require_ready_product(
    p0: DensityMatrix, model: DemonModel
) -> Tuple[DensityMatrix, DensityMatrix]:
    """Check p0 = rho_gas (x) D_0 and return its (gas, demon) marginals."""
    if p0.subsystem_dims is None:
        raise StateError("joint state must declare subsystem_dims")
    dg, dd = p0.subsystem_dims
    if dd != 2:
        raise StateError(f"demon factor must be two-level, got {dd}")
    if dg % 2:
        raise StateError(f"gas factor must pair left and right states, got dim {dg}")
    d0 = model.ready
    dem = partial_trace(p0, "demon")
    if float(np.max(np.abs(dem.entries - d0.entries))) > PRODUCT_TOL:
        raise StateError("demon factor is not the ready state D_0")
    gas = partial_trace(p0, "gas")
    if float(np.max(np.abs(p0.entries - _product_blocks(gas, d0)))) > PRODUCT_TOL:
        raise StateError("input is not a gas (x) D_0 product state")
    return gas, dem


def premeasure(p0: DensityMatrix, model: DemonModel) -> MeasurementRecord:
    """Run the readoff unitary on a ready product state and take stock.

    p0 must be rho_gas (x) |D_0><D_0| with subsystem_dims declared.  The
    post state carries full gas-demon correlations; marginal entropies and
    the mutual-information delta are recorded.
    """
    gas_pre, dem_pre = _require_ready_product(p0, model)
    dg, _ = p0.subsystem_dims
    u = coupling_unitary(model, dg)
    post = DensityMatrix(u @ p0.entries @ u.T, subsystem_dims=p0.subsystem_dims)
    s_pre = vn_entropy(p0)
    s_post = vn_entropy(post)
    sg_pre = vn_entropy(gas_pre)
    sg_post = vn_entropy(partial_trace(post, "gas"))
    sd_pre = vn_entropy(dem_pre)
    sd_post = vn_entropy(partial_trace(post, "demon"))
    di = _mutual_information(sg_post, sd_post, s_post) - _mutual_information(
        sg_pre, sd_pre, s_pre
    )
    ds_gas = sg_post - sg_pre
    ds_demon = sd_post - sd_pre
    return MeasurementRecord(
        model=model,
        pre=p0,
        post=post,
        ds_demon=ds_demon,
        ds_gas=ds_gas,
        ds_joint=s_post - s_pre,
        di_mu=di,
        balance_residual=abs(di - (ds_gas + ds_demon)),
    )


def reverse_readoff(
    record: MeasurementRecord, state: Optional[DensityMatrix] = None
) -> ReversalResult:
    """Apply the inverse readoff unitary and check recovery of the pre state.

    By default the record's own post state is reversed, which restores the
    pre state exactly.  Passing a different joint state (the dephased or
    marginal-product version, say) shows when the step has become
    irreversible: the unitary still applies, but recovered comes back
    False with the residual trace distance.
    """
    target = record.post if state is None else state
    if target.entries.shape != record.post.entries.shape:
        raise StateError(
            f"block shape mismatch: {target.entries.shape} vs {record.post.entries.shape}"
        )
    dg, _ = record.pre.subsystem_dims
    u = coupling_unitary(record.model, dg)
    back = DensityMatrix(u.T @ target.entries @ u, subsystem_dims=record.pre.subsystem_dims)
    dist = trace_distance(back, record.pre)
    return ReversalResult(state=back, recovered=dist <= RECOVERY_TOL, distance=dist)


def product_of_marginals(p: DensityMatrix) -> DensityMatrix:
    """rho_gas (x) rho_demon built from p's own marginals.

    Same marginals as p, zero mutual information.  For the post-readoff
    state this is what an observer holding no record would write down.
    """
    if p.subsystem_dims is None:
        raise StateError("product of marginals needs declared subsystem_dims")
    return product_dm(partial_trace(p, "gas"), partial_trace(p, "demon"))


@dataclass
class EnvironmentLedger:
    """Running account of entropy and free energy dumped to the surroundings."""

    entropy: float = 0.0
    free_energy: float = 0.0


class ResetCharge(NamedTuple):
    entropy: float
    free_energy: float


def reset_demon(
    demon_state: DensityMatrix,
    ledger: EnvironmentLedger,
    T: float = 1.0,
    k_B: float = 1.0,
) -> Tuple[DensityMatrix, ResetCharge]:
    """Erase the pointer back to D_0 and charge the cost to the environment.

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
    charge = ResetCharge(entropy=s, free_energy=k_B * T * s)
    ledger.entropy += charge.entropy
    ledger.free_energy += charge.free_energy
    return DemonModel().ready, charge
