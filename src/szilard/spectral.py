"""Single-molecule spectra: analytic box levels, numerical levels with a
rectangular barrier inserted, tunneling doublets, and the localized
left/right basis built from each doublet.

Units are carried by PhysicalParams; the defaults put hbar = m = k_B = 1
and L = 1 so that the ground-state scale is eps = pi^2/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .exceptions import SpectralError
from .numerics import Grid, TridiagonalSymmetric, eig_tridiagonal

__all__ = [
    "PhysicalParams",
    "Level",
    "Spectrum",
    "SplitPair",
    "box_levels",
    "barrier_grid",
    "hamiltonian",
    "barrier_spectrum",
    "splitting_estimate",
    "analytic_pairs",
    "mirror",
    "parity",
]

# a doublet member whose mirror expectation lies below this is treated as
# parity-mixed and re-diagonalized within the pair subspace
PARITY_DEFINITE = 0.99


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


class Level(NamedTuple):
    n: int
    energy: float
    vector: Optional[np.ndarray]  # None for analytic levels
    label: str


@dataclass(frozen=True)
class Spectrum:
    """Ordered energy levels, optionally with grid eigenvectors."""

    levels: tuple
    grid: Optional[Grid] = None

    def __post_init__(self):
        levels = tuple(self.levels)
        if not levels:
            raise ValueError("a spectrum needs at least one level")
        e = np.array([lv.energy for lv in levels])
        tol = 1e-12 * max(1.0, float(np.max(np.abs(e))))
        if np.any(np.diff(e) < -tol):
            raise ValueError("levels must be sorted ascending")
        for lv in levels:
            if lv.vector is not None and abs(np.linalg.norm(lv.vector) - 1.0) > 1e-8:
                raise ValueError(f"eigenvector of level {lv.n} is not unit-norm")
        object.__setattr__(self, "levels", levels)

    @property
    def energies(self) -> np.ndarray:
        return np.array([lv.energy for lv in self.levels])

    def __len__(self):
        return len(self.levels)


@dataclass(frozen=True)
class SplitPair:
    """A below-barrier doublet.

    energy is the arithmetic mean of the numerical pair, delta the
    half-splitting, so the two members sit at energy -/+ delta with the
    symmetric (psi_minus) member below the antisymmetric (psi_plus) one.
    left/right are the localized combinations (psi_plus +/- psi_minus)/sqrt2.
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


def box_levels(params: PhysicalParams, n_max: int) -> Spectrum:
    """Analytic spectrum of the bare box, E_n = eps * n^2.

    Eigenfunctions are the centered-box sinusoids vanishing at +/- L/2:
    cos(n pi x / L) for odd n (even parity), sin(n pi x / L) for even n.
    Only energies are stored; every Level carries vector None.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    eps = params.eps
    levels = tuple(
        Level(n, eps * n * n, None, "even" if n % 2 == 1 else "odd")
        for n in range(1, n_max + 1)
    )
    return Spectrum(levels)


def barrier_grid(params: PhysicalParams, n_target: int = 4096) -> Grid:
    """Grid on (-L/2, L/2) sized so the barrier edges sit on grid points.

    Scans counts near n_target and keeps the one whose grid puts x = +/- d/2
    closest to actual grid points.  With on-grid edges the effective well
    width is exact, which matters once U is large enough that the walls are
    effectively hard.
    """
    if n_target < 3:
        raise ValueError(f"n_target must be >= 3, got {n_target}")
    best_n = None
    best_score = None
    for n in range(max(3, n_target - 64), n_target + 65):
        h = params.L / (n + 1)
        # index offset of the right barrier edge from the left wall
        pos = (params.L + params.d) / 2.0 / h
        score = abs(pos - round(pos))
        if best_score is None or score < best_score - 1e-15 or (
            abs(score - best_score) <= 1e-15 and abs(n - n_target) < abs(best_n - n_target)
        ):
            best_n, best_score = n, score
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


def mirror(v: np.ndarray) -> np.ndarray:
    """Spatial reflection x -> -x on a symmetric grid."""
    return v[::-1]


def parity(v: np.ndarray) -> float:
    """Mirror expectation <v|mirror|v>; +/-1 for definite-parity states."""
    return float(v @ v[::-1])


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


def barrier_spectrum(params: PhysicalParams, n_pairs: int, grid: Optional[Grid] = None):
    """Numerical doublets of the box with the barrier inserted.

    Solves the finite-difference problem for the lowest 2*n_pairs levels and
    groups them into SplitPairs: for pair k the members are reconstructed as
    energy -/+ delta with the symmetric member below the antisymmetric one.

    Degenerate doublets (splitting at the solver's noise floor) may come
    back as arbitrary mixtures within the pair subspace; those are
    re-diagonalized against the mirror operator so the returned members
    have definite parity.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if params.d <= 0:
        raise SpectralError("barrier_spectrum needs a barrier, got d = 0")
    if grid is None:
        grid = barrier_grid(params)
    h = grid.spacing
    under = int(np.count_nonzero(np.abs(grid.points) <= params.d / 2.0 + 1e-9 * h))
    if under < 16:
        raise SpectralError(
            f"grid too coarse: {under} points under the barrier, need >= 16"
        )
    ham = hamiltonian(params, grid)
    if 2 * n_pairs > ham.dim:
        raise ValueError(f"{n_pairs} pairs need {2*n_pairs} levels, grid has {ham.dim}")
    eig = eig_tridiagonal(ham, 2 * n_pairs)

    pairs = []
    for k in range(1, n_pairs + 1):
        e_lo, v_lo = eig[2 * k - 2]
        e_hi, v_hi = eig[2 * k - 1]
        p_lo, p_hi = parity(v_lo), parity(v_hi)

        if min(abs(p_lo), abs(p_hi)) < PARITY_DEFINITE:
            # mirror-diagonalize within the two-dimensional pair subspace
            s = np.array(
                [
                    [p_lo, float(v_lo @ mirror(v_hi))],
                    [float(v_hi @ mirror(v_lo)), p_hi],
                ]
            )
            w, c = np.linalg.eigh(s)
            vecs = [c[0, j] * v_lo + c[1, j] * v_hi for j in range(2)]
            by_parity = {}
            for u in vecs:
                u = u / np.linalg.norm(u)
                by_parity["sym" if parity(u) > 0 else "anti"] = u
            if set(by_parity) != {"sym", "anti"}:
                raise SpectralError(f"pair {k}: mirror diagonalization failed")
            v_sym, v_anti = by_parity["sym"], by_parity["anti"]
            # Rayleigh quotients; in this branch the pair is degenerate to
            # solver precision, so ordering noise is expected and clamped
            e_sym = float(v_sym @ ham.matvec(v_sym))
            e_anti = float(v_anti @ ham.matvec(v_anti))
        else:
            if p_lo > 0 and p_hi < 0:
                v_sym, v_anti, e_sym, e_anti = v_lo, v_hi, e_lo, e_hi
            elif p_lo < 0 and p_hi > 0:
                raise SpectralError(
                    f"pair {k}: symmetric member above antisymmetric one"
                )
            else:
                raise SpectralError(
                    f"pair {k}: members have equal parity signs "
                    f"({p_lo:+.3f}, {p_hi:+.3f}); no pair structure"
                )

        # pair structure requires the internal gap to stay below the gap
        # to the next doublet
        if 2 * k < len(eig):
            e_next = eig[2 * k][0]
            if (e_anti - e_sym) >= (e_next - e_anti):
                raise SpectralError(
                    f"no pair structure at k = {k}: internal gap "
                    f"{e_anti - e_sym:.4g} reaches the gap {e_next - e_anti:.4g} "
                    f"to the next level (U too low?)"
                )

        v_sym = _fix_sign(v_sym)
        v_anti = _fix_sign(v_anti)
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
    e_k = params.eps_prime * (2 * k) ** 2
    if params.U <= e_k:
        raise SpectralError(
            f"level k={k} sits above the barrier (E_k = {e_k:.6g}, U = {params.U:.6g})"
        )
    kappa = math.sqrt(2.0 * params.mass * (params.U - e_k)) / params.hbar
    return (4.0 * params.eps_prime / math.pi) * math.exp(-params.d * kappa)


def analytic_pairs(params: PhysicalParams, n_pairs: int):
    """Model doublet family (E_k, delta_k) without an eigensolve.

    E_k = eps' (2k)^2; delta_k from splitting_estimate below the barrier and
    zero above it, where the thermal weight of the affected levels is
    negligible anyway at the temperatures this model is meant for.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    out = []
    for k in range(1, n_pairs + 1):
        e_k = params.eps_prime * (2 * k) ** 2
        delta = splitting_estimate(params, k) if params.U > e_k else 0.0
        out.append((e_k, delta))
    return out
