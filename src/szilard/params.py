"""Run definition that needs no numpy: the unit system and engine geometry,
the cycle settings and protocol names, and the size limits, truncation gate
and sweep axes a run is checked against.

This is the layer the command line resolves every command's settings into
before it imports anything that computes, so `szilard thermo` runs on the
standard library and every command's help is built without numpy.
spectral re-exports PhysicalParams, and engine CycleConfig and SWEEP_AXES.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .exceptions import TruncationError

__all__ = ["PhysicalParams", "CycleConfig", "BasisLabeling", "PROTOCOLS", "MAX_PAIRS", "MAX_N_SIDE",
           "SWEEP_AXES"]

# most doublets barrier_spectrum solves in one call, so a huge request fails
# before any level is solved; each level is a scalar root solve, and all
# 4096 levels at the cap take about 24 ms (U = 5e9, one 2-core Xeon)
MAX_PAIRS = 2048
# most doublets per side a gas basis may hold; a joint readoff state keeps
# one real 4x4 block per doublet, 12.8 MB at the cap
MAX_N_SIDE = 100_000
# the CycleConfig settings a sweep can vary
SWEEP_AXES = ("T", "U", "d", "N", "n_steps")

PROTOCOLS = ("isothermal", "stepwise-adiabatic", "single-adiabatic")
_PROTOCOL_ALIASES = {
    "isothermal": "isothermal",
    "stepwise-adiabatic": "stepwise-adiabatic",
    "stepwise": "stepwise-adiabatic",
    "single-adiabatic": "single-adiabatic",
    "adiabatic": "single-adiabatic",
}


def _canon_protocol(name: str) -> str:
    try:
        return _PROTOCOL_ALIASES[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {sorted(set(_PROTOCOL_ALIASES))}"
        ) from None


@dataclass(frozen=True)
class PhysicalParams:
    """Unit system and engine geometry.

    hbar, mass, k_B fix the unit system; L is the box width, d and U the
    barrier width and height, T the reservoir temperature.  d = 0 is allowed
    and means "no barrier"; operations that need one will say so.
    """

    hbar: float = 1.0
    mass: float = 1.0
    k_B: float = 1.0
    L: float = 1.0
    d: float = 0.05
    U: float = 5000.0
    T: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("hbar", "mass", "k_B", "L", "U", "T"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d < 0:
            raise ValueError(f"d must be nonnegative, got {self.d}")
        if not self.d < self.L:
            raise ValueError(f"d must be smaller than L (got d={self.d}, L={self.L})")
        for name in ("eps", "beta", "lambda_th"):  # the scales every computation starts from
            try:
                value = getattr(self, name)
            except ArithmeticError:  # L**2 overflows, or a division by an underflow
                raise ValueError(f"{name} is out of floating-point range") from None
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

    @property
    def beta(self) -> float:
        return 1.0 / (self.k_B * self.T)

    @property
    def eps(self) -> float:
        """Ground-state energy scale of the full box, pi^2 hbar^2 / (2 m L^2)."""
        return math.pi**2 * self.hbar**2 / (2.0 * self.mass * self.L**2)

    @property
    def eps_prime(self) -> float:
        """Same scale for a well of width L - d: eps * L^2/(L-d)^2."""
        return self.eps * self.L**2 / (self.L - self.d) ** 2

    @property
    def sigma(self) -> float:
        """Boltzmann factor of the box scale, exp(-beta * eps)."""
        return math.exp(-self.beta * self.eps)

    @property
    def lambda_th(self) -> float:
        """Thermal de Broglie wavelength (2 pi hbar^2 beta / m)^(1/2)."""
        return math.sqrt(2.0 * math.pi * self.hbar**2 * self.beta / self.mass)


@dataclass(frozen=True)
class CycleConfig:
    """Everything one cycle run depends on.

    n_side is the doublet truncation per side.  It is checked against the
    temperature (n_side^2*eps*beta >= 20, BasisLabeling) by the
    readoff, before any state is built, so a config can be made first and
    given its temperature later.  grid_points changes nothing (no cycle step
    solves a grid); it is kept only because the benchmark constructs
    CycleConfig with it.  coherences=False runs the readoff on the dephased
    post-insertion state (the ideal-measurement limit).
    """

    params: PhysicalParams = field(default_factory=PhysicalParams)
    n_side: int = 45
    protocol: str = "isothermal"
    n_steps: int = 8
    seed: int = 0
    grid_points: int = 4096
    coherences: bool = True
    spectral_check: bool = False

    def __post_init__(self):
        object.__setattr__(self, "protocol", _canon_protocol(self.protocol))
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.grid_points < 3:
            raise ValueError(f"grid_points must be >= 3, got {self.grid_points}")


@dataclass(frozen=True)
class BasisLabeling:
    """Bookkeeping for the truncated localized basis.

    n_side doublets per side; the gas basis is one (L_k, R_k) block per
    doublet k = 1..n_side, 2 n_side states in all.  n_side is capped at
    MAX_N_SIDE, so an oversized basis is refused before any state is built.
    The truncation criterion n_side^2 * eps * beta >= 20 guarantees the
    discarded thermal weight is negligible for every state built here.
    """

    n_side: int
    eps_beta: float

    def __post_init__(self):
        if not 1 <= self.n_side <= MAX_N_SIDE:
            raise ValueError(f"n_side must be in 1..{MAX_N_SIDE}, got {self.n_side}")
        if self.eps_beta <= 0:
            raise ValueError(f"eps_beta must be positive, got {self.eps_beta}")
        crit = self.n_side**2 * self.eps_beta
        if crit < 20.0:
            raise TruncationError(
                f"truncation too small: n_side^2 * eps * beta = {crit:.3g} < 20"
            )
