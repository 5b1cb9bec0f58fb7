"""Single-molecule spectra: the exact levels of the box with a centred
rectangular barrier, its tunneling doublets (k, E_k, delta_k), and the
closed-form model doublets the cycle uses.  No wave function is sampled:
the readoff needs only each doublet's energy and splitting.  The
finite-difference grid and Hamiltonian stay as a test oracle.

Units are carried by PhysicalParams (defined in params, re-exported here);
the defaults put hbar = m = k_B = 1 and L = 1 so that the ground-state
scale is eps = pi^2/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import NumericsError, SpectralError
from .numerics import Grid, TridiagonalSymmetric
from .params import MAX_PAIRS, PhysicalParams

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
# a root's residual on its phase equation theta = n pi, relative to n pi
PHASE_TOL = 1e-12
# delta/E from which a splitting is the difference of the doublet's levels (_split)
SPLIT_SHARE = 0.05


@dataclass(frozen=True)
class SplitPair:
    """A below-barrier doublet: its members sit at energy -/+ delta.

    The symmetric member is the lower one; delta is solved on its own, not
    as the difference of the two levels.
    """

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


def _phase(params: PhysicalParams, e: np.ndarray, odd: np.ndarray):
    """Phase theta(E) at the wall and dtheta/dE, for levels e of parity odd (bool array).

    The solution starts at the centre as cosh or sinh under the barrier top,
    cos or sin above it, and reaches the barrier edge b = d/2 with value psi
    and slope psi'.  Its Prufer angle atan2(k psi, psi'), on the branch
    within pi/2 of the barrier's own phase, gains k w across the well, and
    level n of either parity has theta = n pi.  No poles, continuous at E = U.
    """
    c2, b, w = 2.0 * params.mass / params.hbar**2, 0.5 * params.d, 0.5 * (params.L - params.d)
    k, zeta = np.sqrt(c2 * e), c2 * (e - params.U)
    below, r = zeta < 0.0, np.sqrt(np.abs(zeta))
    z = r * b
    # C, S = cos z, sin(z)/r above the top; under it cosh z and sinh(z)/r times
    # sech z, a positive factor that leaves the angle alone and keeps U = 1e12
    # finite.  dS/dzeta = (b C - S)/(2 zeta), -b b b/6 where it cancels (b**3 raises)
    c = np.where(below, 1.0, np.cos(z))
    s = np.divide(np.where(below, np.tanh(z), np.sin(z)), r, out=np.full_like(z, b), where=r > 0.0)
    ds = np.divide(b * c - s, zeta, out=np.full_like(z, -b * b * b / 3.0), where=z >= 1e-4)
    psi, slope = np.where(odd, s, c), np.where(odd, c, -zeta * s)
    dpsi, dslope = np.where(odd, ds, -b * s), np.where(odd, -b * s, -(s + b * c))
    x = k * psi
    a = np.arctan2(x, slope)
    xi = np.where(below, 0.0, z) + np.where(odd, 0.0, 0.5 * math.pi)
    theta = a + 2.0 * math.pi * np.round((xi - a) / (2.0 * math.pi)) + k * w
    # d(k psi)/dE = c2 (psi/k + k dpsi)/2 and dslope/dE = c2 dslope/2
    dtheta = (slope * (psi / k + k * dpsi) - x * dslope) / (x * x + slope * slope) + w / k
    return theta, 0.5 * c2 * dtheta


def _exact_levels(params: PhysicalParams, n_even: int, n_odd: int):
    """Lowest n_even even and n_odd odd levels of the box with the barrier.

    Level n of either parity solves theta(E) = n pi (_phase), bracketed by
    the free box's level eps m^2 (m = 2n-1 even, 2n odd), which the barrier
    only raises, and the hard-wall level eps' (2n)^2 of the separated wells.
    Newton, all levels at once, starts one phase step below the latter under
    the barrier top, k w = n pi - arctan(k/kappa), and at eps m^2 + U d/L
    above it.  A level bisects where its step leaves the bracket or fails to
    halve, so a resonance above the top cannot stall it.  Once every
    residual is within PHASE_TOL n pi, or what 8 ulps of E resolve, the last
    steps are taken; a level that never gets there raises NumericsError.
    """
    c2, w = 2.0 * params.mass / params.hbar**2, 0.5 * (params.L - params.d)
    n = np.concatenate([np.arange(1, n_even + 1), np.arange(1, n_odd + 1)]).astype(float)
    odd = np.arange(n.size) >= n_even
    m = 2.0 * n - 1.0 + odd
    lo, hi = params.eps * m * m, params.eps_prime * (2.0 * n) ** 2
    k = n * math.pi / w
    k -= np.arctan2(k, np.sqrt(np.maximum(c2 * params.U - k * k, 0.0))) / w
    x = np.where(hi < params.U, np.maximum(k * k / c2, lo),
                 np.minimum(lo + params.U * params.d / params.L, hi))
    last = hi - lo
    for _ in range(_MAX_STEPS):
        theta, slope = _phase(params, x, odd)
        res = theta - n * math.pi
        step, tol = res / slope, np.maximum(PHASE_TOL * n * math.pi, 8.0 * np.spacing(x) * slope)
        done = np.abs(res) <= tol
        if done.all():
            return x[~odd] - step[~odd], x[odd] - step[odd]
        lo, hi = np.where(res > 0.0, lo, x), np.where(res > 0.0, x, hi)
        new = x - step
        newton = done | (lo < new) & (new < hi) & (np.abs(step) <= 0.5 * last)
        new = np.where(newton, new, 0.5 * (lo + hi))
        last, x = np.abs(new - x), new
    j = int(np.argmin(done))
    raise NumericsError(f"{'odd' if odd[j] else 'even'} level {n[j]:.0f} missed its phase "
                        f"equation: residual {abs(res[j]):.3e} > {tol[j]:.3e}")


def _split(params: PhysicalParams, even: np.ndarray, odd: np.ndarray):
    """(mean, delta) of doublets below the barrier top, from their two levels.

    The members solve g(E) = +s(E) (even) and g(E) = -s(E) (odd), with
    g = k cot(kw) + kappa coth(kappa d) and s = kappa/sinh(kappa d): the tanh
    and coth conditions rewritten with tanh(x/2) = coth x - 1/sinh x and
    coth(x/2) = coth x + 1/sinh x.  At the mean c the difference reads
    delta = (s(c - delta) + s(c + delta))/2G, with G = (g(c - delta) -
    g(c + delta))/(2 delta) in closed form: delta keeps its digits far below
    the rounding of the levels, where their difference keeps none.  Secant
    steps from that difference solve it, until the residual or the step is
    within 1e-13 of delta: near a hard-wall level g varies so fast that
    rounding alone leaves a residual.

    A doublet whose delta is SPLIT_SHARE of its mean or more keeps the
    difference, which carries it to a few 1e-15.  Under the thinnest
    barriers (d below 1e-15 at L = 1) the odd member sits at its hard-wall
    level within the rounding of k w, where no g resolves it; there delta
    is about 0.6 E.
    """
    mean, delta = 0.5 * (even + odd), np.maximum(0.5 * (odd - even), 0.0)
    solve = delta < SPLIT_SHARE * mean
    c, start = mean[solve], delta[solve]
    c2, w, d = 2.0 * params.mass / params.hbar**2, 0.5 * (params.L - params.d), params.d

    def image(delta):
        e = np.stack([c + delta, c - delta])
        k, kappa = np.sqrt(c2 * e), np.sqrt(c2 * (params.U - e))
        sin, ish = np.sin(k * w), 2.0 * np.exp(-kappa * d) / -np.expm1(-2.0 * kappa * d)  # 1/sinh
        # k and kappa of the odd member less those of the even one, from delta
        dk, y = 2.0 * c2 * delta / (k[0] + k[1]), -2.0 * c2 * d * delta / (kappa[0] + kappa[1])
        shc = np.divide(np.sinh(y), y, out=np.ones_like(y), where=y != 0.0)
        g_k = (np.cos(k[0] * w) / sin[0] - k[1] * w * np.sinc(w * dk / math.pi) / (sin[0] * sin[1]))
        g_kappa = 1.0 / np.tanh(kappa[0] * d) - kappa[1] * d * shc * ish[0] * ish[1]
        slope = c2 * (g_k / (k[0] + k[1]) - g_kappa / (kappa[0] + kappa[1]))
        return -0.5 * (kappa[0] * ish[0] + kappa[1] * ish[1]) / slope

    x0, x1 = start, image(start)
    r0 = x0 - x1
    for _ in range(_MAX_STEPS):
        r1 = x1 - image(x1)
        dr = r1 - r0
        x2 = np.divide(x1 * r0 - x0 * r1, -dr, out=x1 - r1, where=dr != 0.0)
        if np.all(np.minimum(np.abs(r1), np.abs(x2 - x1)) <= 1e-13 * x1):
            break
        # keep both members inside (0, U)
        x0, r0, x1 = x1, r1, np.clip(x2, 0.5 * x1, 0.5 * (x1 + params.U - c))
    if not np.all(np.abs(x1 - start) <= PHASE_TOL * c):
        raise NumericsError("the splittings do not converge onto the doublets' two levels")
    delta[solve] = x1
    return mean, delta


def barrier_spectrum(params: PhysicalParams, n_pairs: int, grid: Optional[Grid] = None):
    """Doublets (k, E_k, delta_k) of the box with the barrier inserted.

    Each level is a root of its parity's phase equation (_exact_levels) and
    each splitting is solved on its own where the levels' difference cannot
    carry it (_split), so delta keeps its digits however small it is.
    Levels alternate in parity (even_k < odd_k < even_k+1), so pair k is
    the k-th even (symmetric) level with the k-th odd (antisymmetric) one.
    n_pairs is capped at MAX_PAIRS.  grid is accepted and ignored: nothing
    is sampled.
    """
    if not 1 <= n_pairs <= MAX_PAIRS:
        raise ValueError(f"n_pairs must be in 1..{MAX_PAIRS}, got {n_pairs}")
    if params.d <= 0:
        raise SpectralError("barrier_spectrum needs a barrier, got d = 0")
    e_even, e_odd = _exact_levels(params, n_pairs, n_pairs)
    for k in range(1, n_pairs + 1):
        e_sym, e_anti = float(e_even[k - 1]), float(e_odd[k - 1])
        # pair structure requires the internal gap to stay below the gap
        # to the next doublet
        if k < n_pairs and (e_anti - e_sym) >= (e_even[k] - e_anti):
            raise SpectralError(
                f"no pair structure at k = {k}: internal gap "
                f"{e_anti - e_sym:.4g} reaches the gap {e_even[k] - e_anti:.4g} "
                f"to the next level (U too low?)"
            )
        if e_anti >= params.U:
            raise SpectralError(
                f"pair {k} reaches the barrier top "
                f"(E = {0.5 * (e_sym + e_anti):.6g}, U = {params.U:.6g}); no doublet structure"
            )
    means, deltas = _split(params, e_even, e_odd)
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
        raise SpectralError(
            f"level k={k} sits above the barrier (E_k = {e_k:.6g}, U = {params.U:.6g})"
        )
    return _splitting(params, eps_p, e_k)


def _splitting(params: PhysicalParams, eps_p: float, e_k: float) -> float:
    """(4 eps'/pi) exp(-d kappa_k) for a level E_k below the barrier top."""
    kappa = math.sqrt(2.0 * params.mass * (params.U - e_k)) / params.hbar
    return (4.0 * eps_p / math.pi) * math.exp(-params.d * kappa)


def analytic_pairs(params: PhysicalParams, n_pairs: int):
    """Model doublet family (E_k, delta_k) without an eigensolve.

    E_k = eps' (2k)^2; delta_k from splitting_estimate below the barrier and
    zero above it, where the thermal weight of the affected levels is
    negligible anyway at the temperatures this model is meant for.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    eps_p = params.eps_prime
    out = []
    for k in range(1, n_pairs + 1):
        e_k = eps_p * (2 * k) ** 2
        out.append((e_k, _splitting(params, eps_p, e_k) if params.U > e_k else 0.0))
    return out
