"""Single-molecule spectra: numerical levels of the box with a rectangular
barrier inserted, tunneling doublets, the localized left/right basis built
from each doublet, and the closed-form doublet family the cycle uses.

Units are carried by PhysicalParams; the defaults put hbar = m = k_B = 1
and L = 1 so that the ground-state scale is eps = pi^2/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .exceptions import NumericsError, SpectralError
from .numerics import Grid, TridiagonalSymmetric, _check_residuals

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
    """A below-barrier doublet.

    energy is the arithmetic mean of the numerical pair, delta the
    half-splitting, so the two members sit at energy -/+ delta with the
    symmetric (psi_minus) member below the antisymmetric (psi_plus) one.
    Both members come from the closed-form solve of one parity each, so
    their parity is exact.  left/right are the localized combinations
    (psi_plus +/- psi_minus)/sqrt2.
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
    x = grid.points
    h = grid.spacing
    if params.d > 0:
        # the 1e-9*h slack makes barrier membership robust to float rounding,
        # so a point computed as 0.024999999999999998 with d/2 = 0.025 counts
        inside = np.abs(x) <= params.d / 2.0 + 1e-9 * h
        v = np.where(inside, params.U, 0.0)
    else:
        v = np.zeros(grid.n_points)
    t = params.hbar**2 / (2.0 * params.mass * h * h)
    return TridiagonalSymmetric(2.0 * t + v, np.full(grid.n_points - 1, -t))


def _chain(ham: TridiagonalSymmetric):
    """(n, t, U, a) of a double well read off its matrix, else SpectralError: n rows,
    hopping -t, diagonal 2t in the wells and 2t + U on rows a..n+1-a (from 1)."""
    d, o = ham.diagonal, ham.off_diagonal
    n, t = ham.dim, -float(o[0])
    rows = np.flatnonzero(d != d[0])  # the barrier, if ham is a double well
    a = int(rows[0]) + 1 if rows.size else 0
    if not (t > 0 and np.all(o == -t) and d[0] == 2.0 * t and 2 <= a <= n // 2
            and rows[-1] == n - a and rows.size == n + 2 - 2 * a
            and np.all(d[rows] == d[rows[0]]) and d[rows[0]] > d[0]):
        raise SpectralError("closed-form solve needs a mirror-symmetric double well")
    return n, t, float(d[rows[0]] - d[0]), a


def _wave(z: np.ndarray, x: np.ndarray):
    """(even, odd) solutions of psi_(j-1) + psi_(j+1) = (2 - 4z) psi_j, one row per z.

    At the offsets x from the mirror point they are cos(x th) and
    sin(x th)/sin th with z = sin^2(th/2); cosh(x ph) and sinh(x ph)/sinh ph
    for z = -sinh^2(ph/2) < 0; and (-1)^x cosh, (-1)^(x+1) sinh/sinh ph at
    integer x for z - 1 = sinh^2(ph/2) > 0.  Hyperbolic rows are divided by
    cosh(max|x| ph): finite, and unlike e^(-max|x| ph) smooth through z = 0.
    """
    z = z[:, None]
    # half-angle forms: arccos(1 - 2z) loses digits for small z
    th = 2.0 * np.arcsin(np.sqrt(np.clip(z, 1e-300, 1.0)))
    even, odd = np.cos(x * th), np.sin(x * th) / np.sin(th)
    ph = 2.0 * np.arcsinh(np.sqrt(np.abs(z - (z > 1.0)) + 1e-300))
    ax = np.abs(x)
    top = ax.max(axis=-1, keepdims=True)
    near = np.exp((ax - top) * ph) / (1.0 + np.exp(-2.0 * top * ph))
    sign = np.where(z > 1.0, 1.0 - 2.0 * (x % 2.0), 1.0)
    hyp_odd = np.sign(x) * near * -np.expm1(-2.0 * ax * ph) / np.sinh(ph)
    hyp = (z < 0.0) | (z > 1.0)
    return (np.where(hyp, sign * near * (1.0 + np.exp(-2.0 * ax * ph)), even),
            np.where(hyp, np.where(z > 1.0, -sign, 1.0) * hyp_odd, odd))


def _changes(first, last, steps, z):
    """Sign changes over `steps` steps of one segment: floor(steps th/pi) or one
    more (th = 2 arcsin sqrt z a step, none below the band, ~pi above it), by the end signs."""
    turn = 2.0 * np.arcsin(np.sqrt(np.clip(z, 0.0, 1.0))) / np.pi
    k0 = np.where(z > 1.0, steps - 1, np.floor(steps * turn))
    return k0 + (k0 + (first * last < 0)) % 2


def _probe(chain, e: np.ndarray, odd: np.ndarray, count: bool = False):
    """Determinant of each level's parity block at e, up to a positive factor.

    From the left wall psi_j = sin(j th)/sin th through row a, an eigenvector
    iff it goes on as its parity's solution g about the mirror point: the
    determinant is the Casoratian psi_a g(X) - psi_(a-1) g(X-1), X = (n+3)/2 - a.
    With count, first returns the Sturm count: the sign changes of psi_1..psi_L
    and the determinant, L the block's last row.
    """
    n, t, U, a = chain
    k = e.size
    z_well, z_bar = e / (4.0 * t), np.minimum((e - U) / (4.0 * t), 1.0)
    span, big_x = (n + 1) // 2 - a, 0.5 * (n + 3) - a  # span: rows a..centre
    offsets = np.array([[a - 1, a, a], [big_x - 1, big_x, big_x], [span - 1, span, span + 1]])
    x = np.repeat(offsets[: 2 + count], k, axis=0)  # the third row only for the count
    even, odd_sol = _wave(np.concatenate([z_well, z_bar, z_bar][: 2 + count]), x)
    p0, p1 = odd_sol[:k, 0], odd_sol[:k, 1]  # psi_(a-1), psi_a
    g = np.where(odd[:, None], odd_sol[k : 2 * k], even[k : 2 * k])
    det = p1 * g[:, 1] - p0 * g[:, 0]
    if not count:
        return det
    # forward into the barrier, psi_(a+s) = psi_a u(s+1) - psi_(a-1) u(s)
    u = odd_sol[2 * k :]
    short = odd & bool(n % 2)  # odd n: the odd block stops a row short of the centre
    last = np.where(short, p1 * u[:, 1] - p0 * u[:, 0], p1 * u[:, 2] - p0 * u[:, 1])
    sturm = _changes(1.0, p1, a - 1, z_well) + _changes(p1, last, span - short, z_bar)
    sturm += last * det < 0
    return sturm.astype(int), det


def _levels(chain, n_even: int, n_odd: int):
    """Lowest n_even even and n_odd odd levels of the chain, each ascending.

    Level k of either parity lies at or below the hard-wall level
    w_k = 4t sin^2(k pi/2a) (interlacing with the well) and below 4t + U.
    Sturm counts there, halved where needed, bracket each level alone; a
    secant on the block determinant, kept in the bracket, refines it.
    """
    n, t, U, a = chain
    if n_even + n_odd > n:
        raise ValueError(f"{n_even + n_odd} levels requested, grid has {n}")
    k = np.concatenate([np.arange(1, n_even + 1), np.arange(1, n_odd + 1)])
    odd = np.arange(k.size) >= n_even
    top, n_w = 4.0 * t + U, min(int(k.max()), a - 1)
    w = 4.0 * t * np.sin(np.arange(1, n_w + 1) * (math.pi / (2 * a))) ** 2
    at_w = _probe(chain, np.tile(w, 2), np.repeat([False, True], n_w), True)[0]
    # per level: the counts at 0, w_1..w_nw and top, and the first w_j with k levels below
    counts = np.column_stack([np.zeros(k.size, int), at_w.reshape(2, n_w)[odd.astype(int)],
                              np.where(odd, n // 2, (n + 1) // 2)])
    j, rows = np.sum(counts[:, 1:-1] < k[:, None], axis=1), np.arange(k.size)
    lo, hi = np.append(0.0, w)[j], np.append(w, top)[j]
    n_lo, n_hi = counts[rows, j], counts[rows, j + 1]
    for _ in range(_MAX_STEPS):
        wide = np.flatnonzero((n_lo != k - 1) | (n_hi != k))
        if not wide.size:
            break
        mid = 0.5 * (lo[wide] + hi[wide])
        c = _probe(chain, mid, odd[wide], True)[0]
        up = c >= k[wide]
        hi[wide[up]], n_hi[wide[up]] = mid[up], c[up]
        lo[wide[~up]], n_lo[wide[~up]] = mid[~up], c[~up]
    else:
        raise NumericsError("Sturm counts did not isolate every level")

    # below the barrier top, start one step from the hard-wall level a th = k pi:
    # a well with a soft wall, sin((a-1) th) = e^ph sin(a th), has a th = k pi - eps
    th = 2.0 * np.arcsin(np.sqrt(np.minimum(hi / (4.0 * t), 1.0)))
    ph = 2.0 * np.arcsinh(np.sqrt(np.maximum(U - hi, 0.0) / (4.0 * t)))
    eps = np.arctan2(np.sin(th), np.exp(ph) - np.cos(th))
    guess = 4.0 * t * np.sin((np.round(a * th / math.pi) * math.pi - eps) / (2 * a)) ** 2
    x = np.where((hi < U) & (lo < guess) & (guess < hi), guess, 0.5 * (lo + hi))
    # the determinant has the sign (-1)^(k-1) at lo and (-1)^k at hi, its value unused at top
    sign_lo = np.where(k % 2 == 1, 1.0, -1.0)
    x_prev, f_prev = hi.copy(), _probe(chain, hi, odd)
    f_prev = np.where((hi < top) & (np.sign(f_prev) == -sign_lo), f_prev, np.nan)
    live = np.arange(k.size)
    for _ in range(_MAX_STEPS):
        if not live.size:
            return x[~odd], x[odd]
        xl, fl = x[live], _probe(chain, x[live], odd[live])
        left = np.sign(fl) == sign_lo[live]
        lo[live], hi[live] = np.where(left, xl, lo[live]), np.where(left, hi[live], xl)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = fl * (xl - x_prev[live]) / (fl - f_prev[live])
        # the secant converges superlinearly: after a step under 1e-13 E the error is rounding
        done = (fl == 0.0) | (np.abs(step) <= 1e-13 * xl)
        new = np.where(fl == 0.0, xl, xl - step)
        bisect = ~done & ~((lo[live] < new) & (new < hi[live]))
        x[live] = np.where(bisect, 0.5 * (lo[live] + hi[live]), new)
        x_prev[live], f_prev[live] = xl, fl
        live = live[~(done | (hi[live] - lo[live] <= 4.0 * np.spacing(hi[live])))]
    raise NumericsError("secant refinement of the levels did not converge")


def _eigvecs(ham: TridiagonalSymmetric, chain, e: np.ndarray, odd: bool) -> np.ndarray:
    """Unit eigenvectors (n, k) at the levels e of one parity, in closed form:
    sin(j th)/sin th in the well, the parity solution scaled to it at rows a-1
    and a (least squares) in the barrier, the mirror image beyond; residual-checked."""
    n, t, U, a = chain
    well = _wave(e / (4.0 * t), np.arange(1.0, a + 1))[1]
    z_bar = np.minimum((e - U) / (4.0 * t), 1.0)
    bar = _wave(z_bar, np.arange(a - 1, n + 3 - a) - 0.5 * (n + 1))[int(odd)]
    amp = (well[:, -2] * bar[:, 0] + well[:, -1] * bar[:, 1]) / (bar[:, 0] ** 2 + bar[:, 1] ** 2)
    mirror = (-1.0 if odd else 1.0) * well[:, -2::-1]
    v = np.hstack([well[:, :-1], amp[:, None] * bar[:, 1:-1], mirror]).T
    return _check_residuals(ham, e, v)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    # convention: positive amplitude at the leftmost grid point
    lead = v[0]
    if abs(lead) < 1e-13 * float(np.max(np.abs(v))):
        raise SpectralError("sign convention unresolved: vanishing amplitude at the wall")
    return v if lead > 0 else -v


def _localize(psi_plus: np.ndarray, psi_minus: np.ndarray):
    inv = 1.0 / math.sqrt(2.0)
    left = (psi_plus + psi_minus) * inv
    right = (psi_minus - psi_plus) * inv
    return left, right


def _resolved_grid(params: PhysicalParams, grid: Optional[Grid]) -> Grid:
    """grid (barrier_grid by default); SpectralError if it puts < 16 points under the barrier."""
    if grid is None:
        grid = barrier_grid(params)
    under = int(np.count_nonzero(np.abs(grid.points) <= params.d / 2.0 + 1e-9 * grid.spacing))
    if under < 16:
        raise SpectralError(
            f"grid too coarse: {under} points under the barrier, need >= 16"
        )
    return grid


def barrier_spectrum(params: PhysicalParams, n_pairs: int, grid: Optional[Grid] = None):
    """Numerical doublets of the box with the barrier inserted.

    Solves the finite-difference problem in closed form: the grid
    Hamiltonian is a chain with three constant-potential segments, so each
    level is a root of its parity block's determinant (_levels) and each
    vector the same sines and hyperbolic sines on the grid (_eigvecs).
    Levels alternate in parity (even_k < odd_k < even_k+1), so pair k is the
    k-th even (symmetric) level with the k-th odd (antisymmetric) one, and
    the members have exact parity whatever the splitting.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if params.d <= 0:
        raise SpectralError("barrier_spectrum needs a barrier, got d = 0")
    grid = _resolved_grid(params, grid)
    ham = hamiltonian(params, grid)
    e_even, e_odd = _levels(chain := _chain(ham), n_pairs, n_pairs)
    v_even, v_odd = _eigvecs(ham, chain, e_even, False), _eigvecs(ham, chain, e_odd, True)

    pairs = []
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

        v_sym = _fix_sign(v_even[:, k - 1])
        v_anti = _fix_sign(v_odd[:, k - 1])
        left, right = _localize(v_anti, v_sym)
        mean = 0.5 * (e_sym + e_anti)
        delta = max(0.5 * (e_anti - e_sym), 0.0)

        if mean >= params.U:
            raise SpectralError(
                f"pair {k} sits above the barrier top "
                f"(E = {mean:.6g}, U = {params.U:.6g}); no doublet structure"
            )

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
        half = grid.n_points // 2  # number of points with strictly negative x
        weight = float(np.sum(left[:half] ** 2))
        if weight < 1.0 - allowed:
            raise SpectralError(
                f"pair {k}: left state has weight {weight:.12f} on x < 0, "
                f"below the tunneling-limited bound 1 - {allowed:.3e}"
            )

        pairs.append(
            SplitPair(
                k=k,
                energy=mean,
                delta=delta,
                psi_plus=v_anti,
                psi_minus=v_sym,
                left=left,
                right=right,
            )
        )
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
