"""Single-molecule spectra: the exact levels of the box with a centred
rectangular barrier, its tunneling doublets (k, E_k, delta_k), and the
closed-form model doublets the cycle uses.  No wave function is sampled:
the readoff needs only each doublet's energy and splitting.  Below the
barrier top each level solves its phase deficit, k w = n pi - phi, and each
splitting the non-cancelling difference of its members' deficits; above the
top a level solves its Prufer phase.  The finite-difference grid and
Hamiltonian stay as a test oracle.

The level solver works on numpy arrays and imports numpy where it runs, as
the grid oracle imports numerics; the model doublets (analytic_pairs) are
Python floats, so the cycle's readoff loads neither through this module.

Units are carried by PhysicalParams (defined in params, re-exported here);
the defaults put hbar = m = k_B = 1 and L = 1 so that the ground-state
scale is eps = pi^2/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from .exceptions import NumericsError, SpectralError
from .params import MAX_PAIRS, PhysicalParams

if TYPE_CHECKING:
    import numpy as np

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


@dataclass(frozen=True)
class SplitPair:
    """A below-barrier doublet: its members sit at energy -/+ delta, the symmetric one lower."""

    k: int
    energy: float
    delta: float

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")


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


def _phase(params: PhysicalParams, k: np.ndarray, n: np.ndarray, odd: np.ndarray):
    """Residual theta - n pi of levels k >= k_U of parity odd (bool array), and d/dk.

    The barrier solution, cos or sin from the centre, reaches the edge b =
    d/2 with value psi and slope psi'; its Prufer angle atan2(k psi, psi'),
    on the branch within pi/2 of the barrier's own phase, gains k w across
    the well to theta.  No poles; at E = U the barrier solution is 1 or x.
    """
    import numpy as np

    b, w = 0.5 * params.d, 0.5 * (params.L - params.d)
    zeta = np.maximum(k * k - 2.0 * params.mass / params.hbar**2 * params.U, 0.0)
    r = np.sqrt(zeta)
    z = r * b
    # C, S = cos z, sin(z)/r; dS/dzeta = (b C - S)/(2 zeta), -b b b/6 where it cancels
    c = np.cos(z)
    s = np.divide(np.sin(z), r, out=np.full_like(z, b), where=r > 0.0)
    ds = np.divide(b * c - s, zeta, out=np.full_like(z, -b * b * b / 3.0), where=z >= 1e-4)
    psi, slope = np.where(odd, s, c), np.where(odd, c, -zeta * s)
    dpsi, dslope = np.where(odd, ds, -b * s), np.where(odd, -b * s, -(s + b * c))
    x = k * psi
    a = np.arctan2(x, slope)
    xi = z + np.where(odd, 0.0, 0.5 * math.pi)
    theta = a + 2.0 * math.pi * np.round((xi - a) / (2.0 * math.pi)) + k * w - n * math.pi
    # d(k psi)/dk = psi + k^2 dpsi and dslope/dk = k dslope (dpsi, dslope: 2 d/dzeta)
    return theta, k * (slope * (psi / k + k * dpsi) - x * dslope) / (x * x + slope * slope) + w


def _deficit(params: PhysicalParams, k: np.ndarray, n: np.ndarray, s: np.ndarray):
    """Residual k w + phi - n pi of levels k below the barrier top, and d/dk.

    The deficit phi = atan2(k, rho), with rho = kappa tanh(kappa b)**s the
    barrier's log-derivative at its edge (s = 1 even, -1 odd), rises with k
    and tends to 0 as U grows: nothing cancels at the hard wall.
    """
    import numpy as np

    # a barrier thinner than 1e-300 acts as one of 1e-300: no level can tell,
    # and 1/tanh(kappa b) stays finite
    b, w = max(0.5 * params.d, 1e-300), 0.5 * (params.L - params.d)
    kk = k * k
    kappa = np.sqrt(2.0 * params.mass / params.hbar**2 * params.U - kk)
    y = kappa * b
    t = np.tanh(y)
    rho = kappa * t**s
    # dphi/dk = (rho - k drho/dk)/(k^2 + rho^2), with dkappa/dk = -k/kappa and
    # drho/dkappa = (rho/kappa) (1 + s y (1 - t^2)/t); rho^2 overflows under thin barriers
    slope = w + (1.0 + kk / (kappa * kappa) * (1.0 + s * y * (1.0 - t * t) / t)) / (rho + kk / rho)
    return k * w + np.arctan2(k, rho) - n * math.pi, slope


def _newton(level, x: np.ndarray, lo: np.ndarray, hi: np.ndarray, n: np.ndarray, odd: np.ndarray):
    """Roots in [lo, hi] of level(x) -> (residual, slope), all levels at once.

    A level bisects where its Newton step leaves the bracket or fails to
    halve.  It is done once its residual is within PHASE_TOL n pi or what 8
    ulps of x resolve, or within 1e-6 n pi with the step after next,
    |f''| step^2/2f' (f'' from the last two slopes), under 8 ulps.  Then the
    last steps are taken; a level that never gets there raises NumericsError.
    """
    import numpy as np

    last, rtol = hi - lo, PHASE_TOL * math.pi * n
    near, s0 = 1e6 * rtol, None
    for _ in range(_MAX_STEPS):
        res, slope = level(x)
        step, err = res / slope, np.abs(res)
        new, tol = x - step, 8.0 * np.spacing(x) * slope
        done = err <= np.maximum(rtol, tol)
        if s0 is not None:
            done |= (err <= near) & (np.abs((slope - s0) * step * step) <= 2.0 * tol * last)
        # count_nonzero: a tenth of the dispatch cost of all() on a few levels
        if np.count_nonzero(done) == x.size:
            return new
        up = res > 0.0
        lo, hi = np.where(up, lo, x), np.where(up, x, hi)
        newton = done | (lo <= new) & (new <= hi) & (np.abs(step) <= 0.5 * last)
        if np.count_nonzero(newton) < x.size:
            new = np.where(newton, new, 0.5 * (lo + hi))
        s0, last, x = slope, np.abs(new - x), new
    j = int(np.argmin(done))
    raise NumericsError(f"{'odd' if odd[j] else 'even'} level {n[j]:.0f} missed its phase "
                        f"equation: residual {err[j]:.3e} > {rtol[j]:.3e}")


def _under_top(params: PhysicalParams):
    """How many even and how many odd levels lie below the barrier top: those whose
    residual k_U w + phi - n pi is positive at E = U, phi = pi/2 (even) or arctan(k_U b)."""
    k_u = math.sqrt(2.0 * params.mass / params.hbar**2 * params.U)
    if not math.isfinite(k_u):
        raise SpectralError(f"U = {params.U:.6g} overflows the barrier's wavenumber")
    base = k_u * 0.5 * (params.L - params.d)
    return (math.ceil((base + 0.5 * math.pi) / math.pi) - 1,
            math.ceil((base + math.atan(0.5 * k_u * params.d)) / math.pi) - 1)


def _exact_levels(params: PhysicalParams, n_even: int, n_odd: int):
    """Lowest n_even even and n_odd odd levels of the box with the barrier.

    Placed once at E = U (_under_top), all levels take one Newton solve in k.
    Below the top: the deficit (_deficit) in ((n - 1/2) pi/w, min(n pi/w,
    k_U)), from one phase step below n pi/w.  Above: theta = n pi (_phase)
    from eps m^2 + U d/L, between U, the free level eps m^2 (m = 2n-1 even,
    2n odd) and the separated wells' level eps' (2n)^2.
    """
    import numpy as np

    c2, b, w = 2.0 * params.mass / params.hbar**2, 0.5 * params.d, 0.5 * (params.L - params.d)
    cu = c2 * params.U
    ne, no = (min(n, top) for n, top in zip((n_even, n_odd), _under_top(params)))
    j = ne + no  # the levels below the top come first
    n = np.concatenate((np.arange(1, ne + 1), np.arange(1, no + 1),
                        np.arange(ne + 1, n_even + 1), np.arange(no + 1, n_odd + 1))).astype(float)
    odd = np.repeat([False, True, False, True], [ne, no, n_even - ne, n_odd - no])
    s = 1.0 - 2.0 * odd[:j]
    hard = n[:j] * math.pi / w
    kappa = np.sqrt(np.maximum(cu - hard * hard, 0.0))
    x = hard - np.arctan2(hard, kappa * np.tanh(np.maximum(kappa * b, 1e-300)) ** s) / w
    lo, hi = hard - 0.5 * math.pi / w, np.minimum(hard, math.sqrt(cu))
    if j < n.size:
        m = 2.0 * n[j:] - 1.0 + odd[j:]
        e_lo, e_hi = params.eps * m * m, np.maximum(params.eps_prime * (2.0 * n[j:]) ** 2, params.U)
        e_x = np.clip(e_lo + params.U * params.d / params.L, params.U, e_hi)
        x, lo, hi = (np.concatenate((a, np.sqrt(c2 * e))) for a, e in
                     ((x, e_x), (lo, np.maximum(e_lo, params.U)), (hi, e_hi)))

    def level(k):
        if not j:
            return _phase(params, k, n, odd)
        res, slope = _deficit(params, k[:j], n[:j], s)
        if j == k.size:
            return res, slope
        above = _phase(params, k[j:], n[j:], odd[j:])
        return np.concatenate((res, above[0])), np.concatenate((slope, above[1]))

    e = _newton(level, x, lo, hi, n, odd) ** 2 / c2
    return np.concatenate((e[:ne], e[j:j + n_even - ne])), np.concatenate((e[ne:j], e[j + n_even - ne:]))


def _split(params: PhysicalParams, even: np.ndarray, odd: np.ndarray):
    """(mean, delta) of doublets below the barrier top, from their two levels.

    The members' deficits, atan of a = k/(kappa t) (even) and k t/kappa
    (odd), differ by dk w = D - S dk (dk = k_o - k_e): D = arctan(k kappa
    (2/sinh 2 kappa b)/k_U^2) at k_e by the arctan difference identity, and
    S the odd deficit's secant slope, in closed form.  Nothing cancels, so
    delta keeps its digits far below the levels' rounding.  One step dk =
    D/(w + S(dk)) from the levels' difference, a few ulps of k off, solves it.
    """
    import numpy as np

    c2, w = 2.0 * params.mass / params.hbar**2, 0.5 * (params.L - params.d)
    b, cu = max(0.5 * params.d, 1e-300), c2 * params.U  # as in _deficit
    k1 = np.sqrt(c2 * even)
    dk = np.maximum(np.sqrt(c2 * odd) - k1, np.spacing(k1))
    k2 = k1 + dk
    kap1, kap2 = np.sqrt(cu - k1 * k1), np.sqrt(cu - k2 * k2)
    y1 = kap1 * b
    t1, t2 = np.tanh(y1), np.tanh(kap2 * b)
    # 2/sinh(2y) = 4 e^-2y/(1 - e^-4y): finite from y -> 0 to underflow
    d_phi = np.arctan(k1 * kap1 / cu * 4.0 * np.exp(-2.0 * y1) / -np.expm1(-4.0 * y1))
    # (a_o(k2) - a_o(k1))/dk, with x = (kappa1 - kappa2) b and tanh y2 - tanh y1 = -sinh x sech y1 sech y2
    ksum = k1 + k2
    x = b * dk * ksum / (kap1 + kap2)
    rise = (cu / (k2 * kap1 + k1 * kap2) * ksum * t2
            - k1 * kap2 * np.sinh(x) / dk * np.sqrt((1.0 - t1 * t1) * (1.0 - t2 * t2)))
    q = rise / (kap1 * kap2 + k1 * k2 * t1 * t2)
    dk = d_phi / (w + np.arctan(q * dk) / dk)
    delta = dk * (k1 + 0.5 * dk) / c2
    return even + delta, delta


def barrier_spectrum(params: PhysicalParams, n_pairs: int, grid: Optional[Grid] = None):
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
    means, deltas = _split(params, *_exact_levels(params, n_pairs, n_pairs))
    return [SplitPair(k, float(e), float(dl)) for k, (e, dl) in enumerate(zip(means, deltas), 1)]


def splitting_estimate(params: PhysicalParams, k: int) -> float:
    """Closed-form doublet half-splitting estimate.

    Delta_k ~= (4 eps'/pi) * exp(-d * sqrt(2 m (U - E_k)) / hbar) with
    E_k = eps' (2k)^2.  Valid only below the barrier top; above it the
    doublet structure dissolves and the formula has no meaning.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    eps_p = params.eps_prime
    e_k = eps_p * (2 * k) ** 2
    if params.U <= e_k:
        raise SpectralError(f"level k={k} sits above the barrier (E_k = {e_k:.6g}, U = {params.U:.6g})")
    return _splitting(params, eps_p, e_k)


def _splitting(params: PhysicalParams, eps_p: float, e_k: float) -> float:
    """(4 eps'/pi) exp(-d kappa_k) for a level E_k below the barrier top."""
    kappa = math.sqrt(2.0 * params.mass * (params.U - e_k)) / params.hbar
    return (4.0 * eps_p / math.pi) * math.exp(-params.d * kappa)


def analytic_pairs(params: PhysicalParams, n_pairs: int) -> List[Tuple[float, float]]:
    """Model doublet family as n_pairs (E_k, delta_k) rows of Python floats.

    E_k = eps' (2k)^2, an inf of no weight past the float range; delta_k from
    splitting_estimate below the barrier and zero above it, where the thermal
    weight of the affected levels is negligible anyway at the temperatures
    this model is meant for.  Standard library only: the cycle's readoff
    takes its weights from these rows without numpy.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    eps_p, u = params.eps_prime, params.U
    levels = (eps_p * (4.0 * k * k) for k in range(1, n_pairs + 1))
    return [(e, _splitting(params, eps_p, e) if e < u else 0.0) for e in levels]
