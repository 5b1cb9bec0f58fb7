"""Run definition that needs no numpy: the unit system and engine geometry,
the cycle settings and protocol names, the size limits a run is checked
against, and SETTINGS, the one table of run settings, which configure casts
onto a CycleConfig for the command line and the sweep alike.

This is the layer the command line resolves every command's settings into
before it imports anything that computes, so `szilard thermo` runs on the
standard library and every command's help is built without numpy.
spectral re-exports PhysicalParams, and engine CycleConfig and SWEEP_AXES.

The records here, and every record a command builds, are NamedTuples, so
no command imports dataclasses; the validated ones check their fields in
__new__ and build _replace(...) through it.
"""
from __future__ import annotations

import math
from typing import NamedTuple

__all__ = ["PhysicalParams", "CycleConfig", "PROTOCOLS", "MAX_PAIRS", "MAX_N_SIDE", "SETTINGS",
           "SWEEP_AXES", "configure"]

# most doublets barrier_spectrum solves in one call, so a huge request fails
# before any level is solved; each level is a scalar root solve, and all
# 4096 levels at the cap take about 24 ms (U = 5e9, one 2-core Xeon)
MAX_PAIRS = 2048
# most doublets per side a gas basis may hold; a joint readoff state keeps
# one real 4x4 block per doublet, 12.8 MB at the cap
MAX_N_SIDE = 100_000

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


# every run setting, its type and help: L, d, U and T set CycleConfig.params,
# N sets n_side and the rest set the CycleConfig field of their own name
SETTINGS = {
    "L": (float, "box width"),
    "d": (float, "barrier width"),
    "U": (float, "barrier height"),
    "T": (float, "temperature"),
    "N": (int, f"doublet truncation per side, at most {MAX_N_SIDE}"),
    "protocol": (str, " | ".join(PROTOCOLS)),
    "n_steps": (int, "stepwise increment count"),
    "seed": (int, "master seed"),
}
# the settings a sweep can vary
SWEEP_AXES = ("T", "U", "d", "N", "n_steps")


def _checked_make(cls, iterable):
    """_make, and so _replace, of a record whose __new__ checks its fields."""
    return cls(*iterable)


class _PhysicalFields(NamedTuple):
    hbar: float = 1.0
    mass: float = 1.0
    k_B: float = 1.0
    L: float = 1.0
    d: float = 0.05
    U: float = 5000.0
    T: float = 1.0


class PhysicalParams(_PhysicalFields):
    """Unit system and engine geometry.

    hbar, mass, k_B fix the unit system; L is the box width, d and U the
    barrier width and height, T the reservoir temperature.  d = 0 means
    "no barrier", which the spectra and the readoff refuse by name.
    Construction and _replace(...) both check every field.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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
        return self

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


class _CycleFields(NamedTuple):
    params: PhysicalParams = PhysicalParams()
    n_side: int = 45
    protocol: str = "isothermal"
    n_steps: int = 8
    seed: int = 0
    grid_points: int = 4096
    coherences: bool = True
    spectral_check: bool = False


class CycleConfig(_CycleFields):
    """Everything one cycle run depends on.

    n_side is the doublet truncation per side, at most MAX_N_SIDE.  The
    readoff checks it against the temperature (n_side^2 eps beta >= 20)
    before it takes any weight, so a config can be made first and given its
    temperature later.  grid_points changes nothing (no cycle step
    solves a grid); it is kept only because the benchmark constructs
    CycleConfig with it.  coherences=False runs the readoff on the dephased
    post-insertion state (the ideal-measurement limit).  Construction and
    _replace(...) both check every field and store protocol by its
    canonical name.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if (protocol := _canon_protocol(self.protocol)) != self.protocol:
            return self._replace(protocol=protocol)
        if not 1 <= self.n_side <= MAX_N_SIDE:
            raise ValueError(f"n_side must be in 1..{MAX_N_SIDE}, got {self.n_side}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.grid_points < 3:
            raise ValueError(f"grid_points must be >= 3, got {self.grid_points}")
        return self


def configure(config: CycleConfig, settings: dict) -> CycleConfig:
    """config with the named SETTINGS set, each value cast by its type.

    L, d, U and T go to config.params and N to n_side; the constructors
    check every value.
    """
    values = {"n_side" if key == "N" else key: SETTINGS[key][0](value)
              for key, value in settings.items()}
    geometry = {key: values.pop(key) for key in ("L", "d", "U", "T") if key in values}
    return config._replace(params=config.params._replace(**geometry), **values)
