"""Single-molecule spectra: the exact levels of the box with a centred
rectangular barrier, its tunneling doublets (k, E_k, delta_k), the
asymptotic splitting of an exact doublet (splitting_estimate), and the
closed-form model doublets the cycle uses.  No wave function is sampled:
the readoff needs only each doublet's energy and splitting.  Below the
barrier top each level solves its phase deficit, k w = n pi - phi, and each
splitting the non-cancelling difference of its members' deficits; above the
top a level solves its Prufer phase.  The finite-difference grid and
Hamiltonian stay as a test oracle.

The level solver and the model doublets (analytic_pairs) run on Python
floats, one Newton solve per level, so no spectrum loads numpy; only the
grid oracle imports numpy and numerics, where it runs.

Units are carried by PhysicalParams (defined in params, re-exported here);
the defaults put hbar = m = k_B = 1 and L = 1 so that the ground-state
scale is eps = pi^2/2.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

from .exceptions import NumericsError, SpectralError
from .params import MAX_PAIRS, PhysicalParams, _checked_make

if TYPE_CHECKING:
    from .numerics import Grid, TridiagonalSymmetric

__all__ = [
    "PhysicalParams",
    "SplitPair",
    "barrier_grid",
    "hamiltonian",
    "barrier_spectrum",
    "splitting_estimate",
    "analytic_pairs",
]

_MAX_STEPS = 200  # per loop of a level solve; 200 halvings take any bracket to rounding
# a root's residual on its phase equation, relative to n pi
PHASE_TOL = 1e-12
_TWO_PI, _HALF_PI = 2.0 * math.pi, 0.5 * math.pi


class _PairFields(NamedTuple):
    k: int
    energy: float
    delta: float


class SplitPair(_PairFields):
    """A below-barrier doublet: its members sit at energy -/+ delta, the symmetric one lower."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.delta < 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        return self


def barrier_grid(params: PhysicalParams, n_target: int = 4096) -> Grid:
    """Grid on (-L/2, L/2) sized so the barrier edges sit on grid points.

    For the finite-difference oracle (hamiltonian) in the tests and the
    benchmark; no production value is computed on a grid.

    Scans counts within n_target +/- min(64, n_target // 16) and keeps the
    one whose grid puts x = +/- d/2 closest to actual grid points.  With
    on-grid edges the effective well width is exact, which matters once U
    is large enough that the walls are effectively hard.
    """
    import numpy as np

    from .numerics import Grid

    if n_target < 3:
        raise ValueError(f"n_target must be >= 3, got {n_target}")
    reach = min(64, n_target // 16)
    n = np.arange(max(3, n_target - reach), n_target + reach + 1)
    # index offset of the right barrier edge from the left wall
    pos = (params.L + params.d) / 2.0 / (params.L / (n + 1))
    score = np.abs(pos - np.round(pos))
    # scores within 1e-15 of the best tie; the tie goes to the count nearest
    # n_target, and to the smaller count at equal distance
    tied = n[score <= score.min() + 1e-15]
    best_n = int(tied[np.argmin(np.abs(tied - n_target))])
    return Grid(best_n, -params.L / 2.0, params.L / 2.0)


def hamiltonian(params: PhysicalParams, grid: Grid) -> TridiagonalSymmetric:
    """Second-order finite-difference Hamiltonian with Dirichlet walls.

    The grid oracle for the exact levels: tests and the benchmark solve it,
    production code does not.
    """
    import numpy as np

    from .numerics import TridiagonalSymmetric

    x, h = grid.points, grid.spacing
    if params.d > 0:
        # the 1e-9*h slack makes barrier membership robust to float rounding,
        # so a point computed as 0.024999999999999998 with d/2 = 0.025 counts
        inside = np.abs(x) <= params.d / 2.0 + 1e-9 * h
        v = np.where(inside, params.U, 0.0)
    else:
        v = np.zeros(grid.n_points)
    t = params.hbar**2 / (2.0 * params.mass * h * h)
    return TridiagonalSymmetric(2.0 * t + v, np.full(grid.n_points - 1, -t))


def _phase(k: float, npi: float, odd: bool, b: float, w: float, cu: float):
    """Residual theta - n pi (npi = n pi) of a level k >= k_U of parity odd, and d/dk.

    The barrier solution, cos or sin from the centre, reaches the edge b =
    d/2 with value psi and slope psi'; its Prufer angle atan2(k psi, psi'),
    on the branch within pi/2 of the barrier's own phase, gains k w across
    the well to theta.  No poles; at E = U the barrier solution is 1 or x.
    cu is 2 m U/hbar^2.
    """
    zeta = k * k - cu
    if zeta < 0.0:
        zeta = 0.0
    r = math.sqrt(zeta)
    z = r * b
    # C, S = cos z, sin(z)/r; dS/dzeta = (b C - S)/(2 zeta), -b b b/6 where it cancels;
    # odd: psi = S, psi' = C; even: psi = C, psi' = -zeta S.  d(k psi)/dk = psi +
    # k^2 dpsi and dpsi'/dk = k dpsi' (dpsi, dpsi': 2 d/dzeta)
    c = math.cos(z)
    s = math.sin(z) / r if r > 0.0 else b
    if odd:
        ds = (b * c - s) / zeta if z >= 1e-4 else -b * b * b / 3.0
        x = k * s
        a = math.atan2(x, c)
        theta = a + _TWO_PI * round((z - a) / _TWO_PI) + k * w - npi
        return theta, k * (c * (s / k + k * ds) + x * (b * s)) / (x * x + c * c) + w
    slope = -zeta * s
    x = k * c
    a = math.atan2(x, slope)
    theta = a + _TWO_PI * round((z + _HALF_PI - a) / _TWO_PI) + k * w - npi
    return theta, k * (slope * (c / k - k * (b * s)) + x * (s + b * c)) / (x * x + slope * slope) + w


def _deficit(k: float, npi: float, odd: bool, b: float, w: float, cu: float):
    """Residual k w + phi - n pi (npi = n pi) of a level k below the barrier top, and d/dk.

    The deficit phi = atan2(k, rho), with rho = kappa tanh(kappa b) (even)
    or kappa/tanh(kappa b) (odd) the barrier's log-derivative at its edge,
    rises with k and tends to 0 as U grows: nothing cancels at the hard
    wall.  Where rho rounds to 0 (at k = k_U, or where kappa and b are both
    tiny) it takes its limit at kappa b -> 0: 0 (even) or 1/b (odd).
    """
    kk = k * k
    kappa = math.sqrt(cu - kk) if kk < cu else 0.0
    y = kappa * b
    t = math.tanh(y)
    rho = (kappa / t if t else 0.0) if odd else kappa * t
    if not rho:  # and phi' -> 2b (even) or b (1 + 2/3 k^2 b^2)/(1 + k^2 b^2) (odd)
        q = kk * b * b
        dphi = b * (1.0 + 2.0 * q / 3.0) / (1.0 + q) if odd else 2.0 * b
        return k * w + math.atan2(k, 1.0 / b if odd else 0.0) - npi, w + dphi
    sy = -y if odd else y
    # dphi/dk = (rho - k drho/dk)/(k^2 + rho^2), with dkappa/dk = -k/kappa and
    # drho/dkappa = (rho/kappa) (1 + s y (1 - t^2)/t); rho^2 overflows under thin barriers
    slope = w + (1.0 + kk / (kappa * kappa) * (1.0 + sy * (1.0 - t * t) / t)) / (rho + kk / rho)
    return k * w + math.atan2(k, rho) - npi, slope


def _newton(level, x: float, lo: float, hi: float, n: int, odd: bool, b: float, w: float,
            cu: float) -> float:
    """Root in [lo, hi] of level(x, n pi, odd, b, w, cu) -> (residual, slope).

    The level bisects where its Newton step leaves the bracket or fails to
    halve.  It is done once its residual is within PHASE_TOL n pi or what 8
    ulps of x resolve, or within 1e-6 n pi with the step after next,
    |f''| step^2/2f' (f'' from the last two slopes), under 8 ulps, and then
    takes its last step; one that never gets there raises NumericsError.
    """
    last, rtol, npi = hi - lo, PHASE_TOL * math.pi * n, n * math.pi
    near, s0 = 1e6 * rtol, math.nan  # no f'' before the second step
    for _ in range(_MAX_STEPS):
        res, slope = level(x, npi, odd, b, w, cu)
        step, err = res / slope, abs(res)
        new = x - step
        if err <= rtol:
            return new
        tol = 8.0 * math.ulp(x) * slope
        if err <= tol or err <= near and abs((slope - s0) * step * step) <= 2.0 * tol * last:
            return new
        if res > 0.0:
            hi = x
        else:
            lo = x
        if not (lo <= new <= hi and abs(step) <= 0.5 * last):
            new = 0.5 * (lo + hi)
        s0, last, x = slope, abs(new - x), new
    raise NumericsError(f"{'odd' if odd else 'even'} level {n} missed its phase "
                        f"equation: residual {err:.3e} > {rtol:.3e}")


def _under_top(params: PhysicalParams):
    """How many even and how many odd levels lie below the barrier top: those whose
    residual k_U w + phi - n pi is positive at E = U, phi = pi/2 (even) or arctan(k_U b)."""
    k_u = math.sqrt(2.0 * params.mass / params.hbar**2 * params.U)
    if not math.isfinite(k_u):
        raise SpectralError(f"U = {params.U:.6g} overflows the barrier's wavenumber")
    base = k_u * 0.5 * (params.L - params.d)
    return (math.ceil((base + 0.5 * math.pi) / math.pi) - 1,
            math.ceil((base + math.atan(0.5 * k_u * params.d)) / math.pi) - 1)


def _exact_levels(params: PhysicalParams, n_even: int, n_odd: int) -> Tuple[List[float], List[float]]:
    """Lowest n_even even and n_odd odd levels of the box with the barrier.

    Placed once at E = U (_under_top), each level takes one Newton solve in
    k (_newton).  Below the top: the deficit (_deficit) in ((n - 1/2) pi/w,
    min(n pi/w, k_U)), from one phase step below n pi/w.  Above: theta = n pi
    (_phase) from eps m^2 + U d/L, between U, the free level eps m^2 (m =
    2n-1 even, 2n odd) and the separated wells' level eps' (2n)^2.  A math
    error on the way (an input past the float range) raises NumericsError.
    """
    c2, b, w = 2.0 * params.mass / params.hbar**2, 0.5 * params.d, 0.5 * (params.L - params.d)
    u, eps, eps_p = params.U, params.eps, params.eps_prime
    cu, lift, half = c2 * u, u * params.d / params.L, 0.5 * math.pi / w
    k_u = math.sqrt(cu)
    # a barrier thinner than 1e-300 acts as one of 1e-300 under the top: no
    # level can tell, and 1/tanh(kappa b) stays finite
    b_under = max(b, 1e-300)
    levels = ([], [])
    # max, min and the square are spelled out below: as calls they cost a
    # tenth of a 90-level solve
    for odd, count, top in zip((False, True), (n_even, n_odd), _under_top(params)):
        for n in range(1, count + 1):
            try:
                if n <= top:
                    hard = n * math.pi / w
                    kappa, hi = (math.sqrt(cu - hard * hard), hard) if hard < k_u else (0.0, k_u)
                    y = kappa * b
                    t = math.tanh(y if y > 1e-300 else 1e-300)
                    x = hard - math.atan2(hard, kappa / t if odd else kappa * t) / w
                    k = _newton(_deficit, x, hard - half, hi, n, odd, b_under, w, cu)
                else:
                    m = 2 * n - 1 + odd
                    e_free, e_hi = eps * m * m, eps_p * (4.0 * n * n)
                    e_hi = e_hi if e_hi > u else u
                    e_lo = e_free if e_free > u else u
                    e_x = e_free + lift
                    e_x = e_hi if e_x > e_hi else e_x if e_x > u else u
                    k = _newton(_phase, math.sqrt(c2 * e_x), math.sqrt(c2 * e_lo), math.sqrt(c2 * e_hi),
                                n, odd, b, w, cu)
            except (ArithmeticError, ValueError) as exc:
                parity = "odd" if odd else "even"
                raise NumericsError(f"{parity} level {n} left the float range: {exc}") from exc
            levels[odd].append(k * k / c2)
    return levels


def _split(params: PhysicalParams, even: List[float], odd: List[float]) -> List[Tuple[float, float]]:
    """(mean, delta) of the doublets below the barrier top, from their two levels.

    The members' deficits, atan of a = k/(kappa t) (even) and k t/kappa
    (odd), differ by dk w = D - S dk (dk = k_o - k_e): D = arctan(k kappa
    (2/sinh 2 kappa b)/k_U^2) at k_e by the arctan difference identity, and
    S the odd deficit's secant slope, in closed form.  Nothing cancels, so
    delta keeps its digits far below the levels' rounding.  One step dk =
    D/(w + S(dk)) from the levels' difference, a few ulps of k off, solves it.
    """
    c2, w = 2.0 * params.mass / params.hbar**2, 0.5 * (params.L - params.d)
    b, cu = max(0.5 * params.d, 1e-300), c2 * params.U  # as in _exact_levels
    rows = []
    for pair, (e_even, e_odd) in enumerate(zip(even, odd), 1):
        try:
            k1 = math.sqrt(c2 * e_even)
            dk = max(math.sqrt(c2 * e_odd) - k1, math.ulp(k1))
            k2 = k1 + dk
            if k2 * k2 >= cu:  # an odd member at the top to rounding, that _under_top counted below
                raise SpectralError(f"pair {pair} reaches the barrier top (U = {params.U:.6g})")
            kap1, kap2 = math.sqrt(cu - k1 * k1), math.sqrt(cu - k2 * k2)
            y1 = kap1 * b
            t1, t2 = math.tanh(y1), math.tanh(kap2 * b)
            # 2/sinh(2y) = 4 e^-2y/(1 - e^-4y): finite from y -> 0 to underflow
            d_phi = math.atan(k1 * kap1 / cu * 4.0 * math.exp(-2.0 * y1) / -math.expm1(-4.0 * y1))
            # (a_o(k2) - a_o(k1))/dk, with x = (kappa1 - kappa2) b and tanh y2 - tanh y1 = -sinh x sech y1 sech y2
            ksum = k1 + k2
            x = b * dk * ksum / (kap1 + kap2)
            rise = (cu / (k2 * kap1 + k1 * kap2) * ksum * t2
                    - k1 * kap2 * math.sinh(x) / dk * math.sqrt((1.0 - t1 * t1) * (1.0 - t2 * t2)))
            q = rise / (kap1 * kap2 + k1 * k2 * t1 * t2)
            dk = d_phi / (w + math.atan(q * dk) / dk)
        except (ArithmeticError, ValueError) as exc:
            raise NumericsError(f"pair {pair} left the float range: {exc}") from exc
        delta = dk * (k1 + 0.5 * dk) / c2
        rows.append((e_even + delta, delta))
    return rows


def barrier_spectrum(params: PhysicalParams, n_pairs: int, grid: Optional[Grid] = None) -> List[SplitPair]:
    """Doublets (k, E_k, delta_k) of the box with the barrier inserted.

    Every member must lie below the barrier top (_under_top).  Pair k is the
    k-th even (symmetric) level with the k-th odd one (_exact_levels), its
    delta solved on its own (_split).  n_pairs is capped at MAX_PAIRS.  grid
    is accepted and ignored: nothing is sampled.
    """
    if not 1 <= n_pairs <= MAX_PAIRS:
        raise ValueError(f"n_pairs must be in 1..{MAX_PAIRS}, got {n_pairs}")
    if params.d <= 0:
        raise SpectralError("barrier_spectrum needs a barrier, got d = 0")
    top = _under_top(params)[1]
    if n_pairs > top:
        raise SpectralError(f"pair {top + 1} reaches the barrier top (U = {params.U:.6g})")
    rows = _split(params, *_exact_levels(params, n_pairs, n_pairs))
    return [SplitPair(k, e, delta) for k, (e, delta) in enumerate(rows, 1)]


def splitting_estimate(params: PhysicalParams, pair: SplitPair) -> float:
    """Square-double-well asymptotic half-splitting of a doublet below the top.

    delta_k ~= 4 E_k (1 - E_k/U) e^(-kappa_k d)/(1 + kappa_k w), with E_k the
    pair's own level, kappa_k = sqrt(2 m (U - E_k))/hbar and w = (L - d)/2
    (Merzbacher, ch. 8); its relative error is within 2 e^(-2 kappa_k d) at
    E_k <= U/2.  A pair at or above the barrier top has no estimate.
    """
    e_k, u = pair.energy, params.U
    if e_k >= u:
        raise SpectralError(f"pair {pair.k} sits above the barrier (E_k = {e_k:.6g}, U = {u:.6g})")
    kappa = math.sqrt(2.0 * params.mass * (u - e_k)) / params.hbar
    w = 0.5 * (params.L - params.d)
    return 4.0 * e_k * (1.0 - e_k / u) * math.exp(-kappa * params.d) / (1.0 + kappa * w)


def _estimate_bound(params: PhysicalParams, pair: SplitPair) -> Optional[float]:
    """splitting_estimate's relative-error bound 2 e^(-2 kappa_k d) where it is
    proven, at E_k <= U/2 with delta_k >= 1e-290 E_k; None elsewhere."""
    e_k = pair.energy
    # as a quotient: 1e-290 E_k would underflow to 0 and pass delta_k = 0
    if e_k > 0.5 * params.U or pair.delta / e_k < 1e-290:
        return None
    kappa = math.sqrt(2.0 * params.mass * (params.U - e_k)) / params.hbar
    return 2.0 * math.exp(-2.0 * kappa * params.d)


def _splitting(params: PhysicalParams, eps_p: float, e_k: float) -> float:
    """(4 eps'/pi) exp(-d kappa_k) for a level E_k below the barrier top."""
    kappa = math.sqrt(2.0 * params.mass * (params.U - e_k)) / params.hbar
    return (4.0 * eps_p / math.pi) * math.exp(-params.d * kappa)


def analytic_pairs(params: PhysicalParams, n_pairs: int) -> List[Tuple[float, float]]:
    """Model doublet family as n_pairs (E_k, delta_k) rows of Python floats.

    E_k = eps' (2k)^2, an inf of no weight past the float range; delta_k the
    model's (4 eps'/pi) e^(-kappa_k d) below the barrier (_splitting) and zero
    above it, where the thermal weight of the affected levels is negligible
    anyway at the temperatures this model is meant for.  The model is not
    the exact doublet: at the defaults its delta_1 is 4 times the exact one.
    Standard library only: the cycle's readoff takes its weights from these
    rows without numpy.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    eps_p, u = params.eps_prime, params.U
    levels = (eps_p * (4.0 * k * k) for k in range(1, n_pairs + 1))
    return [(e, _splitting(params, eps_p, e) if e < u else 0.0) for e in levels]
