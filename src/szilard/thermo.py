"""Canonical-ensemble quantities for the one-molecule gas: partition
functions (exact series, theta-form, high-temperature), free energies of
each engine stage, internal energy, entropy, and isothermal work.

Conventions: beta = 1/(k_B T); free energy A = -k_B T ln Z; entropies
returned by thermo_entropy carry units of k_B (natural log).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .exceptions import SpectralError, ThermoError
from .numerics import _stebz, sum_series
from .spectral import PhysicalParams, _parity_blocks, barrier_grid, hamiltonian

__all__ = [
    "PartitionResult",
    "StageLedger",
    "StageFreeEnergies",
    "SpectralStageCheck",
    "partition_exact",
    "partition_theta",
    "partition_highT",
    "stage_free_energies",
    "isothermal_work",
    "mean_energy",
    "thermo_entropy",
    "spectral_stage_check",
]

STAGES = ("free", "inserted", "measured-L", "measured-R", "expanded")


@dataclass(frozen=True)
class PartitionResult:
    """A partition-function value plus provenance.

    method is one of exact-series | theta-approx | high-T.
    est_error is a relative error estimate; regime_ok goes False when the
    inputs fall outside the approximation's validity window (the value is
    still returned so callers can see how the formula degrades).
    """

    Z: float
    method: str
    terms_used: int
    est_error: float
    regime_ok: bool = True


def _gauss_tail(sigma: float):
    """Remainder bound for sum over n of sigma^(n^2) after n terms.

    Successive term ratios are sigma^(2n+1), so the tail is dominated by a
    geometric series with ratio sigma^(2n+3).
    """

    def bound(n: int) -> float:
        q = sigma ** (2 * n + 3)
        if q >= 1.0:
            return math.inf
        return sigma ** ((n + 1) ** 2) / (1.0 - q)

    return bound


def partition_exact(params: PhysicalParams, beta: float) -> PartitionResult:
    """Z = sum over n of exp(-beta E_n) for the analytic box spectrum E_n = eps n^2.

    Summed as a series in sigma = exp(-beta eps) with a certified Gaussian
    tail bound.
    """
    if beta <= 0:
        raise ThermoError(f"beta must be positive, got {beta}")
    sigma = math.exp(-beta * params.eps)
    if sigma == 0.0:
        # beta so large the first term already underflows
        raise ThermoError("series underflows at this beta")
    terms = (sigma ** (n * n) for n in range(1, 10**6))
    res = sum_series(terms, _gauss_tail(sigma), rel_tol=1e-12)
    if res.value <= 0:
        raise ThermoError("partition sum underflowed to zero")
    return PartitionResult(res.value, "exact-series", res.terms_used, 1e-12)


def partition_theta(sigma: float) -> PartitionResult:
    """Theta-function closed form Z = ((pi/|ln sigma|)^(1/2) - 1)/2.

    Adequate in the window 1/2 < sigma < 1; outside it the value is still
    computed but flagged regime_ok = False (for small sigma the formula
    even goes negative).
    """
    if not 0.0 < sigma < 1.0:
        raise ThermoError(f"sigma must lie in (0, 1), got {sigma}")
    z = 0.5 * (math.sqrt(math.pi / abs(math.log(sigma))) - 1.0)
    ok = 0.5 < sigma < 1.0
    # within (0.5, 0.95) the form tracks the exact series to ~1e-3
    err = 1e-3 if 0.5 < sigma < 0.95 else math.inf
    return PartitionResult(z, "theta-approx", 0, err, regime_ok=ok)


def partition_highT(params: PhysicalParams) -> PartitionResult:
    """High-temperature form Z = (pi/(eps beta))^(1/2) / 2 = L / lambda_th."""
    eb = params.eps * params.beta
    z = 0.5 * math.sqrt(math.pi / eb)
    ok = eb <= 0.1
    # the exact series sits about 1/2 below this form (surface term),
    # so the relative deviation is close to 0.5/(Z - 0.5)
    err = 0.5 / max(z - 0.5, 1e-300)
    return PartitionResult(z, "high-T", 0, err, regime_ok=ok)


@dataclass(frozen=True)
class StageFreeEnergies:
    """Closed-form stage free energies in the high-temperature regime.

    A: barrier-free box of width L.  A_tilde: barrier inserted, width L - d.
    A_left: molecule known to occupy one half, width (L - d)/2.
    """

    A: float
    A_tilde: float
    A_left: float

    @property
    def insertion_cost(self) -> float:
        """A_tilde - A = k_B T ln(L/(L-d)); vanishes as d -> 0."""
        return self.A_tilde - self.A

    @property
    def measurement_jump(self) -> float:
        """A_left - A_tilde = k_B T ln 2, the free-energy value of knowing the side."""
        return self.A_left - self.A_tilde


def stage_free_energies(params: PhysicalParams) -> StageFreeEnergies:
    kT = params.k_B * params.T
    lam = params.lambda_th
    a = -kT * math.log(params.L / lam)
    a_tilde = -kT * math.log((params.L - params.d) / lam)
    a_left = -kT * math.log((params.L - params.d) / 2.0 / lam)
    return StageFreeEnergies(a, a_tilde, a_left)


def isothermal_work(v_initial: float, v_final: float, T: float, k_B: float = 1.0) -> float:
    """Reversible isothermal work k_B T ln(v_final/v_initial).

    This is the integral of p dV with p = k_B T / V, taken in closed form.
    """
    if v_initial <= 0 or v_final <= 0:
        raise ThermoError(f"volumes must be positive, got {v_initial}, {v_final}")
    return k_B * T * math.log(v_final / v_initial)


def _box_moments(params: PhysicalParams, beta: float) -> Tuple[float, float]:
    """(Z, <E>) of the analytic box spectrum, each from one certified series.

    partition_exact rejects beta <= 0 and a series that underflows.
    """
    z = partition_exact(params, beta).Z
    eps = params.eps
    sigma = math.exp(-beta * eps)

    def tail(n: int) -> float:
        # term ratio ((j+1)/j)^2 sigma^(2j+1) <= ((n+2)/(n+1))^2 sigma^(2n+3)
        q = ((n + 2) / (n + 1)) ** 2 * sigma ** (2 * n + 3)
        if q >= 1.0:
            return math.inf
        return eps * (n + 1) ** 2 * sigma ** ((n + 1) ** 2) / (1.0 - q)

    num = sum_series(
        (eps * n * n * sigma ** (n * n) for n in range(1, 10**6)), tail, rel_tol=1e-12
    )
    return z, num.value / z


def mean_energy(params: PhysicalParams, beta: float) -> float:
    """Canonical mean energy <E> = -d ln Z / d beta.

    Uses the same certified series as partition_exact.
    """
    if beta <= 0:
        raise ThermoError(f"beta must be positive, got {beta}")
    return _box_moments(params, beta)[1]


def thermo_entropy(params: PhysicalParams, beta: float, k_B: float = 1.0) -> float:
    """Thermodynamic entropy S = k_B (ln Z + beta <E>)."""
    z, e_mean = _box_moments(params, beta)
    return k_B * (math.log(z) + beta * e_mean)


@dataclass(frozen=True)
class StageLedger:
    """Per-stage thermodynamic record; A and S_thermo follow from Z, E_int, T."""

    stage: str
    Z: float
    E_int: float
    T: float
    k_B: float = 1.0

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}, expected one of {STAGES}")
        if not self.Z > 0:
            raise ValueError(f"Z must be positive, got {self.Z}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")

    @property
    def A(self) -> float:
        """Free energy -k_B T ln Z."""
        return -self.k_B * self.T * math.log(self.Z)

    @property
    def S_thermo(self) -> float:
        """Entropy (E_int - A)/T."""
        return (self.E_int - self.A) / self.T


@dataclass(frozen=True)
class SpectralStageCheck:
    """Stage free energies recomputed from a numerical barrier spectrum.

    Z_all sums every computed level of the inserted-barrier box; Z_left
    sums the left-well populations e^(-beta E_k) cosh(beta delta_k) over the
    doublets below the barrier top (pairs_used of them).  Each such term is
    half the weight of the doublet's two levels, so Z_all = 2 Z_left and
    jump_spectral = k_B T ln 2 by construction, up to the weight of levels
    left unpaired or above the barrier top: the jump is no independent
    confirmation of the closed form, only a bound on that weight.  The
    closed-form twins come from stage_free_energies.
    """

    A_tilde_spectral: float
    A_left_spectral: float
    A_tilde_closed: float
    A_left_closed: float
    jump_spectral: float
    jump_closed: float
    pairs_used: int
    levels_used: int


def spectral_stage_check(params: PhysicalParams, n_levels: int = 90, grid=None) -> SpectralStageCheck:
    """Compare closed-form stage free energies against a numerical spectrum.

    The inserted-stage partition sum uses all n_levels levels of the
    parity-folded solve, ceil(n_levels/2) even and floor(n_levels/2) odd;
    the measured-stage sum uses doublet means and half-splittings, doublet k
    being the k-th even with the k-th odd level, restricted to doublets
    entirely below the barrier top, where the left/right basis is
    meaningful.  Only eigenvalues are solved for, each bracketed to 1e-12
    by bisection.  The spectral jump is k_B T ln 2 by construction up to
    unpaired and above-barrier weight (see SpectralStageCheck); the free
    energies match the closed forms only in the high-temperature window
    (eps*beta small).  Raises SpectralError when d = 0 (no barrier).
    """
    if n_levels < 2:
        raise ThermoError(f"need at least 2 levels, got {n_levels}")
    if params.d <= 0:
        raise SpectralError("spectral_stage_check needs a barrier, got d = 0")
    if grid is None:
        grid = barrier_grid(params)
    beta = params.beta
    kT = params.k_B * params.T
    n_odd = n_levels // 2
    blocks = _parity_blocks(hamiltonian(params, grid), n_levels - n_odd, n_odd)
    even, odd = (_stebz(diag, off, k, eigvals_only=True) for diag, off, k in blocks)

    n_pairs = int(np.searchsorted(odd, params.U))
    if not n_pairs:
        raise ThermoError("no doublets below the barrier top; raise U or lower T")
    # weights relative to the lowest level, so that no exponent is positive
    # at any beta; e^(-beta E_k) cosh(beta delta_k) is the mean weight of the
    # doublet's two members
    e0 = float(min(even[0], odd[0]))
    w_even = np.exp(-beta * (even - e0))
    w_odd = np.exp(-beta * (odd - e0))
    z_all = float(np.sum(w_even) + np.sum(w_odd))
    z_left = 0.5 * float(np.sum(w_even[:n_pairs]) + np.sum(w_odd[:n_pairs]))
    a_tilde = e0 - kT * math.log(z_all)
    a_left = e0 - kT * math.log(z_left)
    closed = stage_free_energies(params)
    # the jump from the ratio: a_left - a_tilde cancels e0, which is far
    # larger than k_B T ln 2 at low T
    return SpectralStageCheck(
        A_tilde_spectral=a_tilde,
        A_left_spectral=a_left,
        A_tilde_closed=closed.A_tilde,
        A_left_closed=closed.A_left,
        jump_spectral=kT * math.log(z_all / z_left),
        jump_closed=closed.measurement_jump,
        pairs_used=n_pairs,
        levels_used=n_levels,
    )
