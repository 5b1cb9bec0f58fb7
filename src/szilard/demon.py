"""Two-state measuring apparatus: coupling, readoff bookkeeping, reversal.

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

The readoff's figures need no state: a gas block with diagonal (a, d) and
coherence rho_01 sends weight a to D_L and d to D_R, and the dephasing the
two orthogonal pointer states cause costs it its relative entropy of
coherence.  _ledger sums both over the blocks as Python floats.  A block
with no coherence, balanced or not, adds nothing and is not booked: every
block of the ideal cycle, and every pair above the barrier in the coherent
one.  The joint states a record names are built on first read, so a cycle
runs on the standard library and numpy is imported only where a state is
built.  A state is checked only where it enters: the package builds the
ready pointer and post = U pre U^T, so neither passes the gate
(infodyn._derived).
"""
from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from .exceptions import StateError
from .params import _checked_make

if TYPE_CHECKING:
    import numpy as np

    from .infodyn import DensityMatrix

__all__ = [
    "DemonModel",
    "MeasurementRecord",
    "ReversalResult",
    "coupling_unitary",
    "premeasure",
    "reverse_readoff",
    "product_of_marginals",
]

PRODUCT_TOL = 1e-10
RECOVERY_TOL = 1e-12
_LN2 = math.log(2.0)


class DemonModel(NamedTuple):
    """Ready state D_0 of the apparatus in its pointer basis D_L, D_R; the
    coupling angle is fixed at pi/4, so it has no coupling-strength parameter."""

    @property
    def d0(self) -> np.ndarray:
        import numpy as np

        return np.array([1.0, 1.0]) / math.sqrt(2.0)

    @property
    def ready(self) -> DensityMatrix:
        """The ready pointer state |D_0><D_0|, one read-only instance per process."""
        return _ready()


@functools.cache
def _ready() -> DensityMatrix:
    # built on first use; the outer product, not a state filled with 0.5:
    # (1/sqrt 2)^2 rounds below it
    import numpy as np

    from .infodyn import _derived

    d0 = DemonModel().d0
    return _derived(np.outer(d0, d0)[None])


class _Figures(NamedTuple):
    ds_demon: float
    ds_gas: float
    ds_joint: float
    di_mu: float
    balance_residual: float


class MeasurementRecord(_Figures):
    """Entropy bookkeeping across one readoff, and the joint states it names.

    All deltas are post minus pre in k_B units.  The readoff is unitary, so
    the joint entropy does not move: ds_joint and balance_residual,
    |dI_mu - (dS_gas + dS_demon)|, are 0 by that invariance.  The ready
    pointer is pure, so ds_demon is also the entropy of post's apparatus
    marginal, the pointer that the reset erases.

    The record is the tuple of its five figures, which its repr and its
    equality read; build_pre, the pre state's builder, is kept beside them.
    pre and post = U pre U^T are each built on their first read and kept,
    with no gate, so a record that is only booked builds no state.
    """

    _make = classmethod(_checked_make)  # six values, the builder last

    def __new__(cls, ds_demon, ds_gas, ds_joint, di_mu, balance_residual, build_pre):
        self = super().__new__(cls, ds_demon, ds_gas, ds_joint, di_mu, balance_residual)
        self.build_pre = build_pre
        return self

    def _replace(self, **changes) -> MeasurementRecord:
        """A copy with changes, which may name build_pre; the built states are not carried over."""
        return type(self)(**{**self._asdict(), "build_pre": self.build_pre, **changes})

    def __getnewargs__(self):  # copy and pickle rebuild a record with its builder
        return (*self, self.build_pre)

    @functools.cached_property
    def pre(self) -> DensityMatrix:
        return self.build_pre()

    @functools.cached_property
    def post(self) -> DensityMatrix:
        from .infodyn import _derived

        u = coupling_unitary()
        return _derived(u @ self.pre.entries @ u.T, self.pre.subsystem_dims)


class ReversalResult(NamedTuple):
    """Outcome of undoing the readoff on a joint state.

    recovered is True when the result matches the record's pre state to
    RECOVERY_TOL in trace distance; distance holds the actual value.
    """

    recovered: bool
    distance: float


@functools.cache
def coupling_unitary() -> np.ndarray:
    """Closed-form readoff unitary on one (L_k, R_k) (x) (D_L, D_R) block: real orthogonal,
    rotation by pi/4 in the pointer plane, sense set by the gas side; one read-only copy."""
    import numpy as np

    u = math.cos(math.pi / 4.0) * (np.eye(4) + np.kron(np.diag([1.0, -1.0]), [[0.0, 1.0], [-1.0, 0.0]]))
    u.setflags(write=False)
    return u


def _g(u: float) -> float:
    """(1+u) ln(1+u) + (1-u) ln(1-u), and its limit 2 ln 2 at u >= 1.

    Below u = 1/2 as 2u atanh u + log1p(-u^2), where the direct form cancels
    to u^2; above it directly, where the two logarithms of 1 - u would cancel.
    """
    if u < 0.5:
        return 2.0 * u * math.atanh(u) + math.log1p(-u * u)
    if u >= 1.0:
        return 2.0 * _LN2
    return (1.0 + u) * math.log1p(u) + (1.0 - u) * math.log(1.0 - u)


def _entropy(*weights: float) -> float:
    """-sum w ln w over the positive weights (0 ln 0 := 0), and never below 0."""
    s = -math.fsum(w * math.log(w) for w in weights if w > 0.0)
    return s if s > 0.0 else 0.0


def _ledger(a: Sequence[float], d: Sequence[float], c: Sequence[float],
            build_pre: Callable[[], DensityMatrix]) -> MeasurementRecord:
    """The readoff's record from the 2x2 gas blocks' diagonals a, d and |rho_01| c, as floats.

    The weights are taken over their total sum a + sum d, once, so both
    figures book a unit-trace state: a total that rounds an ulp off 1
    cannot move ds_demon off ln 2 when sum a = sum d, nor off 0 for a pure
    pointer.
    dS_gas: a block of weight 2m, m = (a+d)/2, h = |a-d|/2, with eigenvalues
    m -+ r, r = hypot(h, c), adds m [g(r/m) - g(h/m)], its relative entropy
    of coherence, without subtracting entropies of order ln K; one of weight
    0 adds 0.  A block with no coherence adds m [g(h/m) - g(h/m)] = +0.0,
    which cannot move the correctly rounded fsum, so it is not booked: the
    ideal cycle books no block at all.  dS_demon: the pointer goes from
    the pure D_0 to diag(sum a, sum d), whose entropy the reset later
    charges; the cycle passes one list as both diagonals, summed once.
    build_pre builds the record's pre state when it or post is first read.
    """
    gas = []
    for x, y, z in zip(a, d, c):
        if z:
            m = 0.5 * (x + y)
            if m > 0.0:
                h = 0.5 * abs(x - y)
                gas.append(m * (_g(math.hypot(h, z) / m) - _g(h / m)) if h else m * _g(z / m))
    sa = math.fsum(a)
    sd = sa if d is a else math.fsum(d)
    t = sa + sd
    # each block's term is of degree 1 in its weights, so one division normalises the sum
    ds_gas = max(math.fsum(gas) / t, 0.0)
    ds_demon = _entropy(sa / t, sd / t)
    return MeasurementRecord(ds_demon=ds_demon, ds_gas=ds_gas, ds_joint=0.0,
                             di_mu=ds_gas + ds_demon, balance_residual=0.0, build_pre=build_pre)


def _require_ready_product(p0: DensityMatrix, model: DemonModel) -> np.ndarray:
    """Check p0 = rho_gas (x) D_0 and return its gas marginal blocks."""
    import numpy as np

    from .infodyn import _marginal, _product_blocks

    if p0.subsystem_dims != (2, 2):
        raise StateError(f"readoff needs subsystem_dims (2, 2), got {p0.subsystem_dims}")
    d0 = model.ready.entries
    dem = _marginal(p0.entries, p0.subsystem_dims, "demon")
    if float(np.abs(dem - d0).max()) > PRODUCT_TOL:
        raise StateError("demon factor is not the ready state D_0")
    gas = _marginal(p0.entries, p0.subsystem_dims, "gas")
    if float(np.abs(p0.entries - _product_blocks(gas, d0)).max()) > PRODUCT_TOL:
        raise StateError("input is not a gas (x) D_0 product state")
    return gas


def premeasure(p0: DensityMatrix, model: DemonModel) -> MeasurementRecord:
    """Run the readoff unitary on a ready product state and take stock.

    p0 must be rho_gas (x) |D_0><D_0| with subsystem_dims (2, 2).  The figures
    come from its gas blocks by _ledger, which takes them to unit trace (D_0's
    rounded (1/sqrt 2)^2 misses it by 2 ulp); pre and post are built on first read.
    """
    import numpy as np

    from .infodyn import _derived

    gas = _require_ready_product(p0, model)
    a, d, c = gas[:, 0, 0].real.tolist(), gas[:, 1, 1].real.tolist(), np.abs(gas[:, 0, 1]).tolist()
    return _ledger(a, d, c, functools.partial(_derived, p0.entries, p0.subsystem_dims))


def reverse_readoff(
    record: MeasurementRecord, state: Optional[DensityMatrix] = None
) -> ReversalResult:
    """Undo the readoff unitary and check recovery of the pre state.

    By default the record's own post state is reversed, which restores the
    pre state exactly: distance 0, with no state built.  Passing a different
    joint state (the dephased or marginal-product version, say) shows when
    the step has become irreversible: recovered comes back False with the
    residual trace distance.  The trace norm is unitarily invariant and
    post = U pre U^T, so the distance of U^T state U from pre is that of
    state from post, and no reversed state is built.
    """
    if state is None:
        return ReversalResult(recovered=True, distance=0.0)
    from .infodyn import trace_distance

    dist = trace_distance(state, record.post)
    return ReversalResult(recovered=dist <= RECOVERY_TOL, distance=dist)


def product_of_marginals(p: DensityMatrix) -> DensityMatrix:
    """rho_gas (x) rho_demon built from p's own marginals.

    Same marginals as p, zero mutual information.  For the post-readoff
    state this is what an observer holding no record would write down, at
    trace distance 1/2 + 1/2 sum_k c_k max(0, 2 tanh(beta delta_k) - 1) from
    it (c_k the L_k population): 1/2 only while every weighted doublet has
    tanh(beta delta_k) <= 1/2.  Neither the marginals nor the product is
    validated again: each is derived from p.
    """
    from .infodyn import partial_trace, product_dm

    return product_dm(partial_trace(p, "gas"), partial_trace(p, "demon"))
