"""Canonical-ensemble quantities for the one-molecule gas: partition
functions (the certified exact series, and the theta-form and
high-temperature approximations it is compared with), internal energy,
entropy, isothermal work, the post-insertion doublet weights, and the
cycle's classical stage table, which stage_free_energies reads.

The box's Z, <E> and S come from one certified pass (_box_sums) in O(1)
terms at every temperature, on one of two sides of x = beta eps = 1: at
x >= 1 the direct sum over the levels, at most 5 of them; below it the
theta transformation, which turns the direct sum's 5/x^(1/2) levels into one
dual term.  Each side stops on a geometric bound within 1e-12 of the sums,
which partition_exact reports as est_error.  spectral_stage_check sums the
exact levels; all of it runs on the standard library.

Conventions: beta = 1/(k_B T); free energy A = -k_B T ln Z; entropies
returned by thermo_entropy carry units of k_B (natural log).
"""
from __future__ import annotations

import bisect
import itertools
import math
from typing import NamedTuple

from .exceptions import SpectralError, ThermoError
from .params import PhysicalParams, _checked_make

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


class PartitionResult(NamedTuple):
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


_LN2 = math.log(2.0)
# each certified tail of the box sums ends within this fraction of its sum
_TAIL_TOL = 1e-12


def _tails(x: float, n: int) -> tuple[float, float]:
    """Bounds on sum_{m>n} w_m and sum_{m>n} (m^2 - 1) w_m, w_m = e^(-x (m^2 - 1)).

    Past level n the ratios of the w_m fall from q = e^(-x (2n+3)) and those of
    the (m^2 - 1) w_m from q (n+1)(n+3)/(n(n+2)): two geometric series.
    """
    g = n * (n + 2)  # (n+1)^2 - 1
    w, q = math.exp(-x * g), math.exp(-x * (2 * n + 3))
    qe = q * (n + 1) * (n + 3) / g
    return w / (1.0 - q), g * w / (1.0 - qe) if qe < 1.0 else math.inf


def _box_sums(eps: float, beta: float) -> tuple[float, float, int, float]:
    """(r, m, terms summed, r's remainder bound) for the box levels E_n = eps n^2,
    with r = sum_{n>=2} w_n over w_n = e^(-x (n^2 - 1)), x = beta eps, and
    m = e/(1 + r), e = sum_n (n^2 - 1) w_n: the mean excitation <n^2> - 1.

    At x >= 1 the direct series, stopped once both _tails are within 1e-12 of
    r and e: at most 5 levels.  Below x = 1 the theta side (_dual_sums), where
    the direct series would need about 5/x^(1/2) levels and the dual one
    needs one term; at x = 4.93 (T = 1) the dual form would cancel.  Either
    way Z, <E> and S come out to 1e-12 even where S is tiny; where every w_n
    underflows, r = m = 0 and Z = e^(-x) may read 0.0.
    """
    if not beta > 0:
        raise ThermoError(f"beta must be positive, got {beta}")
    x = beta * eps
    if x < 1.0:
        return _dual_sums(x)
    r = e = 0.0
    for n in itertools.count(1):
        g = n * (n + 2)
        w = math.exp(-x * g)
        if g * w <= _TAIL_TOL * e:  # the e tail past level n is at least g w
            tail_r, tail_e = _tails(x, n)
            if tail_r <= _TAIL_TOL * r and tail_e <= _TAIL_TOL * e:
                return r, e / (1.0 + r), n, tail_r
        r += w
        e += g * w


def _dual_sums(x: float) -> tuple[float, float, int, float]:
    """_box_sums below x = 1 by the theta transformation (Whittaker and Watson,
    ch. 21): sum_{n>=1} e^(-x n^2) = s b and its derivative in -x,
    sum_{n>=1} n^2 e^(-x n^2) = s a/(2x), with s = (pi/x)^(1/2), y = pi^2/x,
    b = (1 - 1/s)/2 + D, a = 1/2 + D - 2F, D = sum_{k>=1} e^(-y k^2) and
    F = sum_{k>=1} y k^2 e^(-y k^2).

    So 1 + r = e^x s b and m = a/(2x b) - 1.  Dual terms k are added until the
    remainders of r and of e = (1 + r) m, bounded through _tails(y, k) as
    geometric series, are within 1e-12 of r and e; y > pi^2 makes that one
    term at every x < 1.  Refuses an x so small that y leaves the float range,
    k_B T/eps near 1e308, where <E>/eps would overflow.
    """
    s, y = math.sqrt(math.pi / x), math.pi**2 / x
    if y == math.inf:
        raise ThermoError(f"beta eps = {x:.3g} is too small for floats: k_B T/eps overflows")
    grow = math.exp(x) * s  # 1 + r = grow b and e = grow (h - b), h = a/(2x)
    lift = math.exp(-y)
    d = f = 0.0
    for k in itertools.count(1):
        w = math.exp(-y * k * k)
        d, f = d + w, f + y * k * k * w
        b, h = 0.5 * (1.0 - 1.0 / s) + d, (0.5 + d - 2.0 * f) / (2.0 * x)
        # the remainders of D and F past term k: e^(-y) times the _tails of y
        t_d, t_e = _tails(y, k)
        rem_d, rem_f = lift * t_d, y * lift * (t_d + t_e)
        r = grow * b - 1.0
        if (grow * rem_d <= _TAIL_TOL * r
                and (rem_d + 2.0 * rem_f) / (2.0 * x) + rem_d <= _TAIL_TOL * (h - b)):
            return r, (h - b) / b, k, grow * rem_d


def partition_exact(params: PhysicalParams, beta: float) -> PartitionResult:
    """Z = e^(-beta eps) (1 + r) of the box spectrum E_n = eps n^2, from _box_sums:
    the direct series at beta eps >= 1, the theta-transformed one below it, each
    certified.  est_error is the bound on the relative remainder left out.  Z
    reads 0.0 where e^(-beta eps) underflows; <E> and S do not need it.
    """
    r, _, terms, tail_r = _box_sums(params.eps, beta)
    z = math.exp(-beta * params.eps) * (1.0 + r)
    return PartitionResult(z, "exact-series", terms, tail_r / (1.0 + r))


def partition_theta(sigma: float) -> PartitionResult:
    """Theta-function closed form Z = ((pi/|ln sigma|)^(1/2) - 1)/2.

    Adequate in the window 1/2 < sigma < 1; outside it the value is still
    computed but flagged regime_ok = False (for small sigma the formula
    even goes negative).  est_error is the leading dual term of the theta
    transformation (Whittaker and Watson, ch. 21), (pi/x)^(1/2) e^(-pi^2/x)/Z
    with x = |ln sigma|, by which the exact series exceeds the form; inf
    where Z <= 0.  partition_exact is the certified Z at every temperature.
    """
    if not 0.0 < sigma < 1.0:
        raise ThermoError(f"sigma must lie in (0, 1), got {sigma}")
    x = abs(math.log(sigma))
    root = math.sqrt(math.pi / x)
    z = 0.5 * (root - 1.0)
    err = root * math.exp(-math.pi**2 / x) / z if z > 0.0 else math.inf
    return PartitionResult(z, "theta-approx", 0, err, regime_ok=x < _LN2)


def partition_highT(params: PhysicalParams) -> PartitionResult:
    """High-temperature form Z = (pi/(eps beta))^(1/2) / 2 = L / lambda_th.  The exact series
    sits about 1/2 below it (surface term): est_error is 0.5/(Z - 0.5), inf where Z <= 1/2."""
    eb = params.eps * params.beta
    z = 0.5 * math.sqrt(math.pi / eb)
    err = 0.5 / (z - 0.5) if z > 0.5 else math.inf
    return PartitionResult(z, "high-T", 0, err, regime_ok=eb <= 0.1)


class StageFreeEnergies(NamedTuple):
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
    """A, A_tilde and A_left: the A of the stage table's first three stages,
    so the eps beta -> 0 (classical-limit) forms; the default T = 1 has eps beta = 4.93."""
    free, inserted, measured = _stage_ledgers(params, "L")[:3]
    return StageFreeEnergies(free.A, inserted.A, measured.A)


def _doublet_weights(pairs, beta: float, coherences: bool):
    """The post-insertion gas state's entries as lists of Python floats: each
    doublet's L_k and R_k population c_k = w_k (2 + t_k)/2Z and, unless
    coherences is False, its L_k<->R_k coherence s_k = -w_k t_k/2Z, with
    t_k = expm1(-2 beta delta_k) and Z the sum of the w_k (2 + t_k)."""
    # weights relative to the lowest member energy: no exponent is positive,
    # and one that overflows is a weight of 0
    low = min(e - d for e, d in pairs)
    w = [math.exp(-beta * (e - d - low)) for e, d in pairs]
    t = [math.expm1(-2.0 * beta * d) for _, d in pairs]
    q = [x * (2.0 + y) for x, y in zip(w, t)]  # both members' weight
    z = 2.0 * math.fsum(q)
    c = [x / z for x in q]
    s = [-x * y / z for x, y in zip(w, t)] if coherences else [0.0] * len(c)
    return c, s


def isothermal_work(v_initial: float, v_final: float, T: float, k_B: float = 1.0) -> float:
    """Reversible isothermal work k_B T ln(v_final/v_initial).

    This is the integral of p dV with p = k_B T / V, taken in closed form.
    """
    if v_initial <= 0 or v_final <= 0:
        raise ThermoError(f"volumes must be positive, got {v_initial}, {v_final}")
    return k_B * T * math.log(v_final / v_initial)


def mean_energy(params: PhysicalParams, beta: float) -> float:
    """Canonical mean energy <E> = eps (1 + m) from the pass _box_sums."""
    _, m, _, _ = _box_sums(params.eps, beta)
    return params.eps * (1.0 + m)


def thermo_entropy(params: PhysicalParams, beta: float) -> float:
    """Thermodynamic entropy S/k_B = ln Z + beta <E>, summed without cancelling
    as ln(1 + r) + beta eps m from the pass _box_sums; m = 0 adds nothing, even
    where beta eps overflows."""
    r, m, _, _ = _box_sums(params.eps, beta)
    return math.log1p(r) + (beta * params.eps * m if m else 0.0)


class _StageFields(NamedTuple):
    stage: str
    Z: float
    E_int: float
    T: float
    k_B: float = 1.0


class StageLedger(_StageFields):
    """Per-stage thermodynamic record; A and S_thermo follow from Z, E_int, T."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}, expected one of {STAGES}")
        if not self.Z > 0:
            raise ValueError(f"Z must be positive, got {self.Z}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        return self

    @property
    def A(self) -> float:
        """Free energy -k_B T ln Z."""
        return -self.k_B * self.T * math.log(self.Z)

    @property
    def S_thermo(self) -> float:
        """Entropy (E_int - A)/T."""
        return (self.E_int - self.A) / self.T


def _stage_ledgers(params: PhysicalParams, outcome: str) -> tuple[StageLedger, ...]:
    """The cycle's five stages in the classical-limit forms: Z = width/lambda_th
    and E = k_B T/2 at every stage; outcome labels the measured stage."""
    lam, e_int = params.lambda_th, 0.5 * (params.k_B * params.T)
    full, inserted = params.L, params.L - params.d
    widths = (("free", full), ("inserted", inserted), (f"measured-{outcome}", inserted / 2.0),
              ("expanded", inserted), ("free", full))
    return tuple(StageLedger(stage, w / lam, e_int, params.T, params.k_B) for stage, w in widths)


class SpectralStageCheck(NamedTuple):
    """The measurement jump recomputed from the exact barrier spectrum.

    Z_all sums every computed level of the inserted-barrier box; Z_left
    sums the left-well populations e^(-beta E_k) cosh(beta delta_k) over the
    doublets below the barrier top (pairs_used of them).  Each such term is
    half the weight of the doublet's two levels, so Z_all = 2 Z_left and
    jump_spectral = k_B T ln 2 by construction, up to the weight of levels
    left unpaired or above the barrier top: the jump is no independent
    confirmation of the closed form, only a bound on that weight.
    jump_closed comes from stage_free_energies.
    """

    jump_spectral: float
    jump_closed: float
    pairs_used: int
    levels_used: int


def spectral_stage_check(params: PhysicalParams, n_levels: int = 90, grid=None) -> SpectralStageCheck:
    """Compare the closed-form measurement jump against the exact spectrum.

    The inserted-stage sum takes the n_levels lowest exact levels of the box
    with the barrier, ceil(n_levels/2) even and the rest odd, below and
    above the barrier top; the measured-stage sum takes the doublets (k-th
    even with k-th odd level) entirely below the top, where the left/right
    basis is meaningful (see SpectralStageCheck).  grid is accepted and
    ignored: nothing is sampled.  Raises SpectralError when d = 0.
    """
    if n_levels < 2:
        raise ThermoError(f"need at least 2 levels, got {n_levels}")
    if params.d <= 0:
        raise SpectralError("spectral_stage_check needs a barrier, got d = 0")
    from .spectral import _exact_levels

    beta = params.beta
    kT = params.k_B * params.T
    n_odd = n_levels // 2
    even, odd = _exact_levels(params, n_levels - n_odd, n_odd)

    n_pairs = bisect.bisect_left(odd, params.U)
    if not n_pairs:
        raise ThermoError("no doublets below the barrier top; raise U or lower T")
    # weights relative to the lowest level, so that no exponent is positive
    # at any beta; e^(-beta E_k) cosh(beta delta_k) is the mean weight of the
    # doublet's two members
    e0 = min(even[0], odd[0])
    w_even = [math.exp(-beta * (e - e0)) for e in even]
    w_odd = [math.exp(-beta * (e - e0)) for e in odd]
    z_all = math.fsum(w_even) + math.fsum(w_odd)
    z_left = 0.5 * (math.fsum(w_even[:n_pairs]) + math.fsum(w_odd[:n_pairs]))
    return SpectralStageCheck(
        jump_spectral=kT * math.log(z_all / z_left),
        jump_closed=stage_free_energies(params).measurement_jump,
        pairs_used=n_pairs,
        levels_used=n_levels,
    )
