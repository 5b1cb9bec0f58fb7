"""Single-molecule spectra: the exact levels of the box with a centred
rectangular barrier, its tunneling doublets and their eigenfunctions sampled
on a grid, the localized left/right basis built from each doublet, and the
closed-form model doublets the cycle uses.  The finite-difference
Hamiltonian stays as a test oracle.

Units are carried by PhysicalParams; the defaults put hbar = m = k_B = 1
and L = 1 so that the ground-state scale is eps = pi^2/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .exceptions import NumericsError, SpectralError
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
# a root's residual on its phase equation theta = n pi, relative to n pi
PHASE_TOL = 1e-12


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
class SplitPair:
    """A below-barrier doublet of exact levels, its members sampled on a grid.

    The symmetric member (psi_minus) sits at energy - delta, below the
    antisymmetric one (psi_plus) at energy + delta; delta is solved on its
    own, not as the difference of the two levels.  Each member is the
    eigenfunction of one parity, so its parity is exact.  left/right are
    the localized combinations (psi_plus +/- psi_minus)/sqrt2.
    """

    k: int
    energy: float
    delta: float
    psi_plus: np.ndarray
    psi_minus: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        for name in ("psi_plus", "psi_minus", "left", "right"):
            if abs(np.linalg.norm(getattr(self, name)) - 1.0) > 1e-8:
                raise ValueError(f"{name} of pair {self.k} is not unit-norm")
        if abs(float(self.left @ self.right)) > 1e-8:
            raise ValueError(f"left/right of pair {self.k} are not orthogonal")


def barrier_grid(params: PhysicalParams, n_target: int = 4096) -> Grid:
    """Grid on (-L/2, L/2) sized so the barrier edges sit on grid points.

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
    """Second-order finite-difference Hamiltonian with Dirichlet walls."""
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
    # finite.  dS/dzeta = (b C - S)/(2 zeta) for both, -b^3/6 where it cancels
    c = np.where(below, 1.0, np.cos(z))
    s = np.divide(np.where(below, np.tanh(z), np.sin(z)), r, out=np.full_like(z, b), where=r > 0.0)
    ds = np.divide(b * c - s, zeta, out=np.full_like(z, -b**3 / 3.0), where=z >= 1e-4)
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
    steps from that difference solve it.
    """
    c, start = 0.5 * (even + odd), np.maximum(0.5 * (odd - even), 0.0)
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
        if np.all(np.abs(r1) <= 1e-13 * x1):
            break
        dr = r1 - r0
        x2 = np.divide(x1 * r0 - x0 * r1, -dr, out=x1 - r1, where=dr != 0.0)
        # keep both members inside (0, U)
        x0, r0, x1 = x1, r1, np.clip(x2, 0.5 * x1, 0.5 * (x1 + params.U - c))
    if not np.all(np.abs(x1 - start) <= PHASE_TOL * c):
        raise NumericsError("the splittings do not converge onto the doublets' two levels")
    return c, x1


def _sample(params: PhysicalParams, grid: Grid, e: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Unit vectors on the grid, one row per level e below the barrier top.

    The eigenfunction of each level's parity (odd, a bool array) on the
    x >= 0 half, mirrored: cosh or sinh in the barrier, as e^(kappa (x - b))
    times bounded factors so that U = 1e12 cannot overflow, and
    R sin(phi + k (x - b)) in the well, phi the Prufer angle at the edge b.
    Built in place, since a full-size temporary costs a fresh allocation;
    positive at the leftmost grid point.
    """
    c2, n, b = 2.0 * params.mass / params.hbar**2, grid.n_points, 0.5 * params.d
    x = grid.points[n // 2:]
    n_in = int(np.searchsorted(x, b, side="right"))
    k, kappa, o = np.sqrt(c2 * e)[:, None], np.sqrt(c2 * (params.U - e))[:, None], odd[:, None]
    v = np.empty((e.size, n))
    # cosh(kappa y)/cosh(kappa b) and sinh(kappa y)/(kappa cosh(kappa b))
    y, t = np.abs(x[:n_in]), np.tanh(kappa * b)
    grow = np.exp(kappa * (y - b)) / (1.0 + np.exp(-2.0 * kappa * b))
    v[:, n // 2: n // 2 + n_in] = grow * np.where(
        o, -np.expm1(-2.0 * kappa * y) / kappa, 1.0 + np.exp(-2.0 * kappa * y))
    psi, slope = np.where(o, t / kappa, 1.0), np.where(o, 1.0, kappa * t)
    well = v[:, n // 2 + n_in:]
    np.multiply(k, x[n_in:] - b, out=well)
    well += np.arctan2(k * psi, slope)
    np.sin(well, out=well)
    well *= np.hypot(psi, slope / k)
    np.multiply(v[:, n - 1: (n - 1) // 2: -1], np.where(o, -1.0, 1.0), out=v[:, : n // 2])
    lead = v[:, 0]
    if np.any(np.abs(lead) < 1e-13 * np.maximum(v.max(axis=1), -v.min(axis=1))):
        raise SpectralError("sign convention unresolved: vanishing amplitude at the wall")
    v *= (np.sign(lead) / np.sqrt(np.einsum("ij,ij->i", v, v)))[:, None]
    return v


def barrier_spectrum(params: PhysicalParams, n_pairs: int, grid: Optional[Grid] = None):
    """Doublets of the box with the barrier inserted, from its exact levels.

    Each level is a root of its parity's phase equation (_exact_levels) and
    each splitting is solved on its own (_split), so delta keeps its digits
    however small it is.  Levels alternate in parity (even_k < odd_k <
    even_k+1), so pair k is the k-th even (symmetric) level with the k-th
    odd (antisymmetric) one.  The grid only samples the eigenfunctions,
    which have exact parity: it must be the box's interior grid on
    (-L/2, L/2) (barrier_grid by default) with at least 2 n_pairs points,
    and no energy or splitting depends on it.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if params.d <= 0:
        raise SpectralError("barrier_spectrum needs a barrier, got d = 0")
    if grid is None:
        grid = barrier_grid(params)
    if (grid.x_min, grid.x_max) != (-params.L / 2.0, params.L / 2.0):
        raise SpectralError("sampling needs the box's mirror-symmetric grid on (-L/2, L/2)")
    if 2 * n_pairs > grid.n_points:
        raise ValueError(f"{2 * n_pairs} levels requested, grid has {grid.n_points}")
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
    v = _sample(params, grid, np.concatenate([means - deltas, means + deltas]),
                np.arange(2 * n_pairs) >= n_pairs)
    half, inv = grid.n_points // 2, 1.0 / math.sqrt(2.0)  # half: the points with x < 0

    pairs = []
    for k in range(1, n_pairs + 1):
        v_sym, v_anti = v[k - 1], v[n_pairs + k - 1]
        left, right = (v_anti + v_sym) * inv, (v_sym - v_anti) * inv  # localized
        mean, delta = float(means[k - 1]), float(deltas[k - 1])

        # localization sanity: the left state should live at x < 0 up to
        # tunneling corrections.  The deficit has two parts: level mixing
        # within the well, of order (delta/E)^2, and barrier penetration of
        # order k^2/(w kappa^3) exp(-kappa d), which decays half as fast in
        # d and therefore needs its own term in the bound.
        kappa = math.sqrt(2.0 * params.mass * (params.U - mean)) / params.hbar
        k_wave_sq = 2.0 * params.mass * mean / params.hbar**2
        w_well = (params.L - params.d) / 2.0
        pen = k_wave_sq / (w_well * kappa**3) * math.exp(-kappa * params.d)
        allowed = 10.0 * (delta / mean) ** 2 + 4.0 * pen + 1e-10
        weight = float(np.sum(left[:half] ** 2))
        if weight < 1.0 - allowed:
            raise SpectralError(
                f"pair {k}: left state has weight {weight:.12f} on x < 0, "
                f"below the tunneling-limited bound 1 - {allowed:.3e}"
            )

        pairs.append(SplitPair(k=k, energy=mean, delta=delta, psi_plus=v_anti, psi_minus=v_sym,
                               left=left, right=right))
    return pairs


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
